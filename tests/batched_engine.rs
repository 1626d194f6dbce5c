//! Equivalence suite for the batched similarity engine: on a real
//! obfuscated pair, the batched path (cached normalized embeddings +
//! flat dot-product matrix) must reproduce the legacy per-pair cosine
//! path to 1e-12 for every differ, and the metric wrappers must agree
//! with their from-scratch definitions.

use khaos::diff::{
    binary_similarity, dot_blocked, escape_at_k, escape_profile, escape_profile_with,
    origins_match, precision_at_1, ranks_of_true_match, Asm2Vec, BinDiff, DataFlowDiff, Differ,
    EmbeddingCache, Safe, StreamingTopK, VulSeeker,
};
use khaos::obfuscate::{KhaosContext, KhaosMode};
use khaos::opt::{optimize, OptOptions};
use khaos::prelude::*;
use khaos::workloads::{generate, ProgramProfile};
use khaos_binary::Binary;

fn obfuscated_pair(seed: u64, mode: KhaosMode) -> (Binary, Binary) {
    let profile = ProgramProfile {
        name: format!("engine_eq_{seed}"),
        functions: 14,
        constructs: 3,
        seed,
        ..ProgramProfile::default()
    };
    let mut base = generate(&profile);
    optimize(&mut base, &OptOptions::baseline());
    let mut obf = base.clone();
    let mut ctx = KhaosContext::new(seed ^ 0xC60);
    mode.apply(&mut obf, &mut ctx).expect("obfuscation");
    optimize(&mut obf, &OptOptions::baseline());
    (lower_module(&base), lower_module(&obf))
}

fn five_tools() -> Vec<Box<dyn Differ>> {
    vec![
        Box::new(BinDiff::default()),
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
        Box::new(DataFlowDiff::default()),
    ]
}

#[test]
fn batched_matrix_matches_per_pair_path_for_all_tools() {
    for (seed, mode) in [(7, KhaosMode::FuFiAll), (21, KhaosMode::Fission), (33, KhaosMode::Fusion)]
    {
        let (base_bin, obf_bin) = obfuscated_pair(seed, mode);
        let cache = EmbeddingCache::new(16);
        for tool in five_tools() {
            let legacy = tool.similarity_matrix(&base_bin, &obf_bin);
            let batched = tool.batched_similarity(&base_bin, &obf_bin, &cache);
            assert_eq!(batched.rows(), legacy.len(), "{}", tool.name());
            for (i, row) in legacy.iter().enumerate() {
                assert_eq!(batched.row(i).len(), row.len(), "{}", tool.name());
                for (j, &want) in row.iter().enumerate() {
                    let got = batched.get(i, j);
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{} seed {seed} ({i},{j}): batched {got} vs legacy {want}",
                        tool.name()
                    );
                }
            }
        }
    }
}

#[test]
fn cached_and_uncached_batched_matrices_agree() {
    let (base_bin, obf_bin) = obfuscated_pair(11, KhaosMode::FuFiOri);
    let cache = EmbeddingCache::new(16);
    for tool in five_tools() {
        let cold = tool.batched_similarity(&base_bin, &obf_bin, &EmbeddingCache::new(2));
        let via_cache = cache.matrix_for(tool.as_ref(), &base_bin, &obf_bin);
        let again = cache.matrix_for(tool.as_ref(), &base_bin, &obf_bin);
        assert_eq!(*via_cache, *again, "{}: cache must be stable", tool.name());
        for i in 0..cold.rows() {
            for j in 0..cold.cols() {
                assert!(
                    (cold.get(i, j) - via_cache.get(i, j)).abs() <= 1e-12,
                    "{} ({i},{j})",
                    tool.name()
                );
            }
        }
    }
}

// The frozen seed semantics live in `khaos_diff::reference`, shared
// with `benches/bench_similarity.rs` so the equivalence suite and the
// speedup bench pin the same reference.
use khaos::diff::reference::reference_rank_of_true_match as seed_rank;

#[test]
fn metric_wrappers_match_seed_semantics() {
    let (mut base_bin, obf_bin) = obfuscated_pair(17, KhaosMode::FuFiAll);
    for f in base_bin.functions.iter_mut().step_by(3) {
        f.provenance.annotations.push("vulnerable".into());
    }
    let queries: Vec<usize> = (0..base_bin.functions.len()).collect();
    for tool in five_tools() {
        // Ranks for every query function, from the one rank entry point.
        let ranks = ranks_of_true_match(
            tool.as_ref(),
            &base_bin,
            &obf_bin,
            &queries,
            EmbeddingCache::global(),
        );
        assert_eq!(ranks.len(), queries.len(), "{}", tool.name());
        for (qi, got) in ranks.into_iter().enumerate() {
            assert_eq!(
                got,
                seed_rank(tool.as_ref(), &base_bin, &obf_bin, qi),
                "{} rank qi={qi}",
                tool.name()
            );
        }
        // escape@k from one rank pass vs the per-query seed definition,
        // across thresholds.
        let vulnerable: Vec<usize> = base_bin
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
            .map(|(i, _)| i)
            .collect();
        assert!(!vulnerable.is_empty());
        let ks = [1usize, 5, 10, 50];
        let profile = escape_profile(tool.as_ref(), &base_bin, &obf_bin, &ks);
        for (k, got) in ks.iter().zip(&profile) {
            let escaped = vulnerable
                .iter()
                .filter(|&&qi| match seed_rank(tool.as_ref(), &base_bin, &obf_bin, qi) {
                    Some(r) => r > *k,
                    None => true,
                })
                .count();
            let want = escaped as f64 / vulnerable.len() as f64;
            assert!(
                (got - want).abs() <= 1e-12,
                "{} escape@{k}: {got} vs {want}",
                tool.name()
            );
            assert!(
                (escape_at_k(tool.as_ref(), &base_bin, &obf_bin, *k) - want).abs() <= 1e-12,
                "{} escape_at_k@{k}",
                tool.name()
            );
        }
        // Precision@1 against a hand argmax over the legacy matrix.
        let legacy = tool.similarity_matrix(&base_bin, &obf_bin);
        let mut hits = 0usize;
        for (i, row) in legacy.iter().enumerate() {
            let mut best = 0;
            let mut best_s = f64::MIN;
            for (j, s) in row.iter().enumerate() {
                if *s > best_s {
                    best_s = *s;
                    best = j;
                }
            }
            if origins_match(
                &base_bin.functions[i].provenance,
                &obf_bin.functions[best].provenance,
            ) {
                hits += 1;
            }
        }
        let want = hits as f64 / base_bin.functions.len() as f64;
        let got = precision_at_1(tool.as_ref(), &base_bin, &obf_bin);
        assert!((got - want).abs() <= 1e-12, "{} precision", tool.name());
    }
}

#[test]
fn binary_similarity_is_stable_across_repeat_calls() {
    let (base_bin, obf_bin) = obfuscated_pair(29, KhaosMode::Fission);
    for tool in five_tools() {
        let a = binary_similarity(tool.as_ref(), &base_bin, &obf_bin);
        let b = binary_similarity(tool.as_ref(), &base_bin, &obf_bin);
        assert_eq!(a, b, "{}", tool.name());
        assert!((0.0..=1.0 + 1e-9).contains(&a), "{}: {a}", tool.name());
    }
}

// ---------------------------------------------------------------------
// Streaming path: blocked dot products, StreamingTopK and the rank-only
// metrics must agree with the frozen reference semantics.
// ---------------------------------------------------------------------

use khaos::diff::engine::{dot_scalar, stream_top_k};
use khaos::diff::reference::reference_escape_at_k as seed_escape;
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [-1, 1) from a seed-indexed
/// xorshift stream (the proptest shim samples integers; floats are
/// derived so cases stay reproducible).
fn rand_vec(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // 53 uniform bits over [0, 1), mapped to [-1, 1).
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The 8-wide blocked kernel agrees with the scalar reference dot
    /// product to 1e-12 on random vectors of every tail shape.
    #[test]
    fn blocked_dot_matches_scalar(seed in any::<u64>(), dim in 0usize..96) {
        let a = rand_vec(seed ^ 0xA, dim);
        let b = rand_vec(seed ^ 0xB, dim);
        prop_assert!((dot_blocked(&a, &b) - dot_scalar(&a, &b)).abs() <= 1e-12);
    }

    /// `StreamingTopK` over a random row agrees exactly with the frozen
    /// full-sort ranking (descending score, ties by lower index) for
    /// every k — including duplicate scores, which the quantization
    /// below makes frequent.
    #[test]
    fn streaming_top_k_matches_full_sort(seed in any::<u64>(), t in 0usize..80, k in 0usize..90) {
        // Quantize to force score ties; skip the degenerate k=0-and-
        // empty-row combination only when both are zero (nothing to
        // check either way).
        prop_assume!(t > 0 || k > 0);
        let row: Vec<f64> = rand_vec(seed, t)
            .into_iter()
            .map(|x| (x * 8.0).round() / 8.0)
            .collect();
        let mut sel = StreamingTopK::new(k);
        for (j, &s) in row.iter().enumerate() {
            sel.offer(j, s);
        }
        let got: Vec<usize> = sel.into_ranked().into_iter().map(|(j, _)| j).collect();
        let mut want: Vec<usize> = (0..t).collect();
        want.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b)));
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    /// Streaming rank/top-k over random embedding sets agree with the
    /// materialized `SimilarityMatrix` built from the same rows.
    #[test]
    fn streaming_agrees_with_matrix_on_random_embeddings(
        seed in any::<u64>(),
        q in 1usize..12,
        t in 1usize..24,
        dim in 1usize..40,
    ) {
        use khaos::diff::engine::{EmbedScorer, FunctionEmbeddings, RowScore};
        use khaos::diff::SimilarityMatrix;
        use std::sync::Arc;
        let qe = Arc::new(FunctionEmbeddings::from_rows(
            (0..q).map(|i| rand_vec(seed ^ (i as u64) << 8, dim)).collect(),
        ));
        let te = Arc::new(FunctionEmbeddings::from_rows(
            (0..t).map(|j| rand_vec(seed ^ 0x5eed ^ (j as u64) << 20, dim)).collect(),
        ));
        let matrix = SimilarityMatrix::from_embeddings(&qe, &te);
        let scorer = EmbedScorer::new(Arc::clone(&qe), Arc::clone(&te), true);
        for qi in 0..q {
            for j in 0..t {
                prop_assert_eq!(scorer.score(qi, j), matrix.get(qi, j));
            }
            let k = 1 + (seed as usize % t);
            let got = stream_top_k(&scorer, qi, k);
            prop_assert_eq!(got, matrix.top_k(qi, k));
        }
    }
}

#[test]
fn streaming_metrics_match_seed_semantics_for_all_tools() {
    let (mut base_bin, obf_bin) = obfuscated_pair(53, KhaosMode::FuFiAll);
    for f in base_bin.functions.iter_mut().step_by(4) {
        f.provenance.annotations.push("vulnerable".into());
    }
    let ks = [1usize, 3, 10, 50, 10_000];
    let queries: Vec<usize> = (0..base_bin.functions.len()).collect();
    for tool in five_tools() {
        let cache = EmbeddingCache::new(16);
        // Streaming escape against the frozen per-query seed path.
        let profile = escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &ks, &cache);
        for (k, got) in ks.iter().zip(&profile) {
            let want = seed_escape(tool.as_ref(), &base_bin, &obf_bin, *k);
            assert!(
                (got - want).abs() <= 1e-12,
                "{} escape@{k}: {got} vs {want}",
                tool.name()
            );
        }
        // Streaming ranks against the seed full-sort ranks.
        let ranks = ranks_of_true_match(tool.as_ref(), &base_bin, &obf_bin, &queries, &cache);
        for (qi, got) in ranks.into_iter().enumerate() {
            assert_eq!(
                got,
                seed_rank(tool.as_ref(), &base_bin, &obf_bin, qi),
                "{} rank qi={qi}",
                tool.name()
            );
        }
        // Streaming top-k against the matrix's partial selection,
        // including the k > T overhang.
        let scorer = tool.row_scorer(&base_bin, &obf_bin, &cache);
        let matrix = tool.batched_similarity(&base_bin, &obf_bin, &cache);
        for qi in (0..base_bin.functions.len()).step_by(5) {
            for k in [1, 4, obf_bin.functions.len() + 7] {
                assert_eq!(
                    stream_top_k(scorer.as_ref(), qi, k),
                    matrix.top_k(qi, k),
                    "{} top_k qi={qi} k={k}",
                    tool.name()
                );
            }
        }
    }
}

#[test]
fn rank_only_queries_never_build_a_matrix() {
    use khaos::diff::engine::rank_of_first_match_in_row;
    let (mut base_bin, obf_bin) = obfuscated_pair(59, KhaosMode::Fission);
    base_bin.functions[0]
        .provenance
        .annotations
        .push("vulnerable".into());
    let ks = [1usize, 10, 50];
    for tool in five_tools() {
        let cache = EmbeddingCache::new(16);
        let via_stream = escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &ks, &cache);
        let _ = ranks_of_true_match(tool.as_ref(), &base_bin, &obf_bin, &[0], &cache);
        assert_eq!(
            cache.stats().matrix_entries,
            0,
            "{}: rank-only metrics must not materialize a Q×T matrix",
            tool.name()
        );
        // With embeddings warm and no matrix, one escape call costs
        // this many cache hits (the scorer's embedding lookups).
        let before = cache.stats().hits;
        let _ = escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &ks, &cache);
        let stream_hits = cache.stats().hits - before;

        // Once some other metric pays for the matrix, the escape
        // metric still streams: the resident matrix is never looked up
        // (no hit beyond the embedding lookups above)…
        let _ = khaos::diff::precision_at_1_with(tool.as_ref(), &base_bin, &obf_bin, &cache);
        assert_eq!(cache.stats().matrix_entries, 1, "{}", tool.name());
        let before = cache.stats().hits;
        let with_matrix = escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &ks, &cache);
        assert_eq!(
            cache.stats().hits - before,
            stream_hits,
            "{}: a resident matrix must not be consulted by the rank path",
            tool.name()
        );
        assert_eq!(cache.stats().matrix_entries, 1, "{}", tool.name());
        // …and the profile equals the one ranked from that matrix's rows.
        let matrix = cache.matrix_for(tool.as_ref(), &base_bin, &obf_bin);
        let from_rows: Vec<f64> = ks
            .iter()
            .map(|&k| {
                let rank = rank_of_first_match_in_row(matrix.row(0), |j| {
                    origins_match(
                        &base_bin.functions[0].provenance,
                        &obf_bin.functions[j].provenance,
                    )
                });
                if rank.is_some_and(|r| r <= k) {
                    0.0
                } else {
                    1.0
                }
            })
            .collect();
        assert_eq!(with_matrix, from_rows, "{}", tool.name());
        assert_eq!(via_stream, with_matrix, "{}", tool.name());
    }
}

#[test]
fn escape_profile_edge_cases() {
    let tool = Asm2Vec::default();

    // k larger than the candidate pool: a query with any true match has
    // rank <= T <= k, so only match-less queries escape.
    let (mut base_bin, obf_bin) = obfuscated_pair(61, KhaosMode::Fusion);
    for f in base_bin.functions.iter_mut() {
        f.provenance.annotations.push("vulnerable".into());
    }
    let t = obf_bin.functions.len();
    let cache = EmbeddingCache::new(16);
    let matchless = base_bin
        .functions
        .iter()
        .filter(|f| {
            !obf_bin
                .functions
                .iter()
                .any(|c| origins_match(&f.provenance, &c.provenance))
        })
        .count();
    let want = matchless as f64 / base_bin.functions.len() as f64;
    for got in escape_profile_with(&tool, &base_bin, &obf_bin, &[t, t + 1, 10 * t], &cache) {
        assert!(
            (got - want).abs() <= 1e-12,
            "k >= T escape: {got} vs {want}"
        );
    }

    // Single-function binaries: rank is 1 when provenances intersect
    // (escape 0 at every k >= 1), and None when they don't (escape 1).
    let mut solo = small_solo_binary("solo");
    solo.functions[0]
        .provenance
        .annotations
        .push("vulnerable".into());
    assert_eq!(
        escape_profile_with(&tool, &solo, &solo, &[1, 2], &EmbeddingCache::new(4)),
        vec![0.0, 0.0]
    );
    let mut foreign = solo.clone();
    foreign.functions[0].provenance.origins = vec!["elsewhere".into()];
    assert_eq!(
        escape_profile_with(&tool, &solo, &foreign, &[1, 2], &EmbeddingCache::new(4)),
        vec![1.0, 1.0]
    );

    // Tied similarity scores: the pinned tie-break is "lower candidate
    // index ranks first". With two identical candidates ahead of the
    // true match, a clone of the query at index 0 and the true match at
    // index 2 give deterministic rank 3.
    let solo_clean = {
        let mut b = solo.clone();
        b.functions[0].provenance.annotations.clear();
        b
    };
    let mut tied = solo_clean.clone();
    let mut decoy = solo_clean.functions[0].clone();
    decoy.provenance.origins = vec!["decoy".into()];
    tied.functions = vec![
        decoy.clone(),
        decoy,
        {
            let mut t = solo_clean.functions[0].clone();
            t.provenance.origins = solo.functions[0].provenance.origins.clone();
            t
        },
    ];
    let cache = EmbeddingCache::new(4);
    assert_eq!(
        ranks_of_true_match(&tool, &solo, &tied, &[0], &cache),
        vec![Some(3)],
        "two identical decoys at lower indices rank ahead deterministically"
    );
    assert_eq!(
        escape_profile_with(&tool, &solo, &tied, &[1, 2, 3], &cache),
        vec![1.0, 1.0, 0.0]
    );
}

/// A one-function binary for the degenerate-shape cases.
fn small_solo_binary(name: &str) -> Binary {
    let profile = ProgramProfile {
        name: name.into(),
        functions: 1,
        constructs: 1,
        seed: 5,
        ..ProgramProfile::default()
    };
    let mut bin = lower_module(&generate(&profile));
    bin.functions.truncate(1);
    bin
}

// ---------------------------------------------------------------------
// Parallel streaming rank path: at any KHAOS_THREADS the row-parallel
// drivers must produce bit-identical ranked output — indices AND score
// bits — to the sequential scan, for real tool scorers and for
// synthetic rows engineered with ties and NaNs.
// ---------------------------------------------------------------------

use khaos::diff::{par_stream_ranks, par_stream_top_k_rows, stream_top_k_blocks};

/// Runs `f` under each `KHAOS_THREADS` value and returns the results,
/// restoring the variable's prior value afterwards (so an outer
/// `KHAOS_THREADS=1 cargo test` run — CI's sequential leg — keeps its
/// setting for every other test). A process-wide lock serializes the
/// two tests that mutate the variable: without it their save/restore
/// pairs can interleave and "restore" a forced value as the prior one.
/// Inside the lock the env var only changes scheduling, never values —
/// every influenced path is pinned bit-deterministic.
fn at_thread_counts<T>(counts: &[&str], f: impl Fn() -> T) -> Vec<T> {
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prior = std::env::var("KHAOS_THREADS").ok();
    let out = counts
        .iter()
        .map(|t| {
            std::env::set_var("KHAOS_THREADS", t);
            f()
        })
        .collect();
    match prior {
        Some(v) => std::env::set_var("KHAOS_THREADS", v),
        None => std::env::remove_var("KHAOS_THREADS"),
    }
    out
}

fn assert_ranked_bits_equal(a: &[Vec<(usize, f64)>], b: &[Vec<(usize, f64)>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (row, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: row {row} length");
        for ((ja, sa), (jb, sb)) in ra.iter().zip(rb) {
            assert_eq!(ja, jb, "{what}: row {row} index order");
            assert_eq!(
                sa.to_bits(),
                sb.to_bits(),
                "{what}: row {row} score bits"
            );
        }
    }
}

/// Satellite: parallel-vs-sequential streaming rank equivalence for all
/// five differs — ranked indices, score bits, per-query ranks and
/// escape profiles identical under KHAOS_THREADS ∈ {1, 2, 7}.
#[test]
fn parallel_streaming_matches_sequential_for_all_five_differs() {
    let (mut base_bin, obf_bin) = obfuscated_pair(67, KhaosMode::FuFiAll);
    for f in base_bin.functions.iter_mut().step_by(3) {
        f.provenance.annotations.push("vulnerable".into());
    }
    let queries: Vec<usize> = (0..base_bin.functions.len()).collect();
    let ks = [1usize, 10, 50];
    for tool in five_tools() {
        let cache = EmbeddingCache::new(16);
        let runs = at_thread_counts(&["1", "2", "7"], || {
            let scorer = tool.row_scorer(&base_bin, &obf_bin, &cache);
            (
                par_stream_top_k_rows(scorer.as_ref(), &queries, 7),
                ranks_of_true_match(tool.as_ref(), &base_bin, &obf_bin, &queries, &cache),
                escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &ks, &cache),
            )
        });
        let (ref_topk, ref_ranks, ref_escape) = &runs[0];
        // The KHAOS_THREADS=1 leg equals the per-query sequential calls.
        for (qi, want) in ref_ranks.iter().enumerate() {
            assert_eq!(
                ranks_of_true_match(tool.as_ref(), &base_bin, &obf_bin, &[qi], &cache),
                vec![*want],
                "{} qi={qi}: batch ranks must equal per-query calls",
                tool.name()
            );
        }
        for (threads, (topk, ranks, escape)) in ["1", "2", "7"].iter().zip(&runs).skip(1) {
            assert_ranked_bits_equal(
                ref_topk,
                topk,
                &format!("{} KHAOS_THREADS={threads} top-k", tool.name()),
            );
            assert_eq!(ranks, ref_ranks, "{} KHAOS_THREADS={threads}", tool.name());
            assert_eq!(
                escape.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_escape.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{} KHAOS_THREADS={threads} escape bits",
                tool.name()
            );
        }
    }
}

/// A [`khaos::diff::RowScore`] over an explicit flat matrix — the
/// synthetic-input harness for the determinism proptests.
struct FlatScorer {
    q: usize,
    t: usize,
    data: Vec<f64>,
}

impl khaos::diff::RowScore for FlatScorer {
    fn rows(&self) -> usize {
        self.q
    }
    fn cols(&self) -> usize {
        self.t
    }
    fn score(&self, qi: usize, j: usize) -> f64 {
        self.data[qi * self.t + j]
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Parallel row/block drivers are bit-identical to the sequential
    /// scan under KHAOS_THREADS ∈ {1, 2, 7} on synthetic score grids
    /// with engineered ties (quantization), signed zeros and NaNs.
    #[test]
    fn parallel_streaming_is_deterministic_on_ties_and_nans(
        seed in any::<u64>(),
        q in 1usize..6,
        t in 1usize..48,
        k in 0usize..12,
    ) {
        let mut data: Vec<f64> = rand_vec(seed, q * t)
            .into_iter()
            .map(|x| (x * 4.0).round() / 4.0)
            .collect();
        // Inject hostile scores deterministically: signed zeros and
        // both NaN signs, scattered by the seed.
        for (i, x) in data.iter_mut().enumerate() {
            match (seed as usize + i) % 11 {
                0 => *x = 0.0,
                1 => *x = -0.0,
                2 => *x = f64::NAN,
                3 => *x = -f64::NAN,
                _ => {}
            }
        }
        let scorer = FlatScorer { q, t, data };
        let queries: Vec<usize> = (0..q).collect();
        let is_match = |qi: usize, j: usize| (j + qi) % 3 == 0;
        let runs = at_thread_counts(&["1", "2", "7"], || {
            let topk = par_stream_top_k_rows(&scorer, &queries, k);
            let blocked: Vec<_> = (0..q)
                .map(|qi| stream_top_k_blocks(&scorer, qi, k, 5))
                .collect();
            let ranks = par_stream_ranks(&scorer, &queries, is_match);
            (topk, blocked, ranks)
        });
        let (ref_topk, ref_blocked, ref_ranks) = &runs[0];
        // The sequential reference: StreamingTopK offered row-by-row.
        // (Compared by bits — `==` would reject NaN ties that are in
        // fact identical.)
        let seq: Vec<Vec<(usize, f64)>> = (0..q)
            .map(|qi| {
                let mut sel = StreamingTopK::new(k);
                for j in 0..t {
                    sel.offer(j, scorer.data[qi * t + j]);
                }
                sel.into_ranked()
            })
            .collect();
        assert_ranked_bits_equal(ref_topk, &seq, "proptest vs sequential");
        for (topk, blocked, ranks) in &runs[1..] {
            assert_ranked_bits_equal(ref_topk, topk, "proptest top-k");
            assert_ranked_bits_equal(ref_blocked, blocked, "proptest blocked top-k");
            prop_assert_eq!(ranks, ref_ranks);
        }
    }
}

// ---------------------------------------------------------------------
// Runtime-dispatched kernels: forcing each available kernel (scalar,
// AVX2, AVX-512 where the host has them) must leave every artifact —
// similarity matrices and ranked streaming output — bit-identical.
// The dispatch decision is a pure speed knob, never an accuracy knob.
// ---------------------------------------------------------------------

use khaos::diff::engine::FunctionEmbeddings;
use khaos::diff::kernels::{self, KernelKind};
use khaos::diff::QuantizedEmbeddings;

/// Runs `f` once under each available kernel and returns the results,
/// restoring auto dispatch afterwards. A process-wide lock serializes
/// kernel-forcing tests (the forced kernel is process-global state —
/// harmless to concurrent tests only *because* every kernel is pinned
/// bit-identical, which is exactly what these tests prove).
fn at_each_kernel<T>(f: impl Fn(KernelKind) -> T) -> Vec<(KernelKind, T)> {
    static KERNEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = kernels::available()
        .into_iter()
        .map(|k| {
            kernels::force_kernel(Some(k));
            (k, f(k))
        })
        .collect();
    kernels::force_kernel(None);
    out
}

/// Satellite: every forced kernel reproduces the scalar kernel's
/// matrices and ranked top-k bit-for-bit for all five differs on a
/// real obfuscated pair. Fresh caches per kernel, so nothing is served
/// from a matrix computed under a different dispatch choice.
#[test]
fn forced_kernels_are_bit_identical_for_all_five_differs() {
    let (base_bin, obf_bin) = obfuscated_pair(71, KhaosMode::FuFiAll);
    for tool in five_tools() {
        let queries: Vec<usize> = (0..base_bin.functions.len()).collect();
        let runs = at_each_kernel(|_| {
            let cache = EmbeddingCache::new(16);
            let matrix = tool.batched_similarity(&base_bin, &obf_bin, &cache);
            let bits: Vec<u64> = matrix.as_flat().iter().map(|x| x.to_bits()).collect();
            let scorer = tool.row_scorer(&base_bin, &obf_bin, &cache);
            let ranked = par_stream_top_k_rows(scorer.as_ref(), &queries, 10);
            (bits, ranked)
        });
        let (ref_kind, (ref_bits, ref_ranked)) = &runs[0];
        assert_eq!(*ref_kind, KernelKind::Scalar, "scalar is always available");
        for (kind, (bits, ranked)) in &runs[1..] {
            assert_eq!(
                bits,
                ref_bits,
                "{} under {}: matrix must be bit-identical to scalar",
                tool.name(),
                kind.name()
            );
            assert_ranked_bits_equal(
                ref_ranked,
                ranked,
                &format!("{} kernel {}", tool.name(), kind.name()),
            );
        }
    }
}

// ---------------------------------------------------------------------
// int8 quantized tier: every coordinate decodes to within half a step,
// and a quantized row is smaller than its f64 row.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Satellite: int8 quantization reconstructs every coordinate to
    /// within half a quantization step of its row scale.
    #[test]
    fn quantization_round_trip_error_is_within_half_scale(
        seed in any::<u64>(),
        n in 1usize..10,
        dim in 0usize..80,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| rand_vec(seed ^ (i as u64).wrapping_mul(0x9E37), dim))
            .collect();
        let e = FunctionEmbeddings::from_rows(rows);
        let q = QuantizedEmbeddings::from_embeddings(&e);
        // dim + 16 bytes against 8·dim exact: a real saving for any
        // row wider than two f64s.
        prop_assert_eq!(q.bytes_per_function(), dim + 16);
        if dim > 2 {
            prop_assert!(q.bytes_per_function() < dim * 8);
        }
        for i in 0..e.len() {
            let back = q.decode_row(i);
            let bound = q.scales()[i] * 0.5 * (1.0 + 1e-9) + 1e-15;
            for (x, y) in e.row(i).iter().zip(&back) {
                prop_assert!(
                    (x - y).abs() <= bound,
                    "row {}: |{} - {}| > scale/2 = {}", i, x, y, bound
                );
            }
        }
    }
}

#[test]
fn embedding_cache_shares_across_metrics() {
    let (mut base_bin, obf_bin) = obfuscated_pair(41, KhaosMode::FuFiAll);
    base_bin.functions[0].provenance.annotations.push("vulnerable".into());
    let tool = Safe::default();
    let before = EmbeddingCache::global().stats();
    let _ = precision_at_1(&tool, &base_bin, &obf_bin);
    let _ = escape_at_k(&tool, &base_bin, &obf_bin, 10);
    let _ = binary_similarity(&tool, &base_bin, &obf_bin);
    let after = EmbeddingCache::global().stats();
    // Three metric calls over the same pair: at most one matrix build +
    // two embeddings can miss; the rest must be hits.
    assert!(after.misses - before.misses <= 3, "{before:?} -> {after:?}");
    assert!(after.hits > before.hits, "{before:?} -> {after:?}");
}
