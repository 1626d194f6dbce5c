//! `DataFlowDiff` — a data-flow-representation diffing tool.
//!
//! This tool does not appear in the paper's evaluation; it implements the
//! *prediction* of the paper's §5 discussion:
//!
//! > "Previous works pay much more attention to control flow rather than
//! > data flow. From the diffing perspective, data flow is harder to
//! > capture and encode. But from the obfuscation perspective, data flow
//! > is harder to change, too. Therefore, we predict the potential of
//! > data flow representation can be further tapped."
//!
//! Khaos moves code across function boundaries, which redraws control
//! flow (block counts, CFG edges, calls, the call graph) wholesale — but
//! the *computation* itself survives: an address calculation feeding a
//! load feeding an add is the same def-use chain whether it lives in the
//! `oriFunc`, a `sepFunc` or one arm of a `fusFunc`. `DataFlowDiff`
//! therefore embeds a function as a **bag of def-use edges** between
//! operation classes, plus chain-shape statistics, and ignores control
//! flow entirely.
//!
//! The extraction is a classic two-level reaching-definition sketch over
//! machine registers:
//!
//! * **intra-block**: exact last-writer tracking per register;
//! * **inter-block**: one-hop block summaries (`live-out` definition
//!   classes joined against successors' `upward-exposed` uses), which
//!   captures loop-carried and straight-line cross-block flow without a
//!   full fixpoint — enough signal, deterministic, and cheap;
//! * **through memory**: a store to `[base+off]` reaching a later load
//!   of the same slot in the same block is a data-flow edge too (spills
//!   and stack locals would otherwise hide chains).
//!
//! The experiment `experiments ext-dataflow` compares this tool's
//! Precision@1 under every obfuscation configuration against the five
//! paper tools.

use crate::tokens::opcode_class;
use crate::vector::{add_token, EMB_DIM};
use crate::Differ;
use khaos_binary::{BinBlock, BinFunction, Binary, MOperand, Opcode};
use std::collections::HashMap;

/// The data-flow-representation tool of the paper's §5 outlook.
///
/// Embeds a function as a bag of def-use edges between operation classes
/// (exact within blocks, one-hop summaries across blocks, store→load
/// slot dependences) plus chain-depth statistics, L2-normalized so
/// sub-functions of a fissioned body keep pointing the way the original
/// did. Carries no symbol, CFG-shape or call-graph features.
#[derive(Clone, Debug)]
pub struct DataFlowDiff {
    /// Weight of the one-round callee-bag propagation (`0.0` disables
    /// it). Fission cuts def-use chains at region boundaries and re-joins
    /// them with calls; following the data *through* those calls — the
    /// inter-procedural analysis the paper's §5 calls for — re-assembles
    /// the chain signature. Default `0.6`.
    pub callee_weight: f64,
}

impl Default for DataFlowDiff {
    fn default() -> Self {
        DataFlowDiff { callee_weight: 0.6 }
    }
}

impl DataFlowDiff {
    /// Creates the tool with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A variant without the inter-procedural propagation round (the
    /// intra-procedural ablation).
    pub fn intra_only() -> Self {
        DataFlowDiff { callee_weight: 0.0 }
    }
}

/// Whether this opcode writes its first operand (when it is a register).
fn writes_dest(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Store
            | Opcode::Cmp
            | Opcode::Test
            | Opcode::Ucomisd
            | Opcode::Jmp
            | Opcode::Jcc
            | Opcode::Call
            | Opcode::CallInd
            | Opcode::Ret
            | Opcode::Push
            | Opcode::Nop
    )
}

/// Register slots: integer and float registers get disjoint keys.
fn reg_key(o: &MOperand) -> Option<u16> {
    match o {
        MOperand::Reg(r) => Some(*r as u16),
        MOperand::FReg(r) => Some(0x100 + *r as u16),
        _ => None,
    }
}

/// The registers an instruction reads (destination excluded where the
/// opcode overwrites it; two-address ALU ops read their destination too).
fn reads_of(inst: &khaos_binary::MInst, pool: &[MOperand]) -> Vec<u16> {
    let mut rs = Vec::new();
    let dest_written = writes_dest(inst.opcode);
    for (i, o) in inst.operands(pool).iter().enumerate() {
        match o {
            MOperand::Reg(_) | MOperand::FReg(_) => {
                // Two-address semantics: ALU destinations are read-modify-
                // write; plain moves/loads overwrite without reading.
                let overwrites = dest_written
                    && i == 0
                    && matches!(
                        inst.opcode,
                        Opcode::Mov
                            | Opcode::MovImm
                            | Opcode::Load
                            | Opcode::Movsx
                            | Opcode::Movzx
                            | Opcode::Lea
                            | Opcode::Movsd
                            | Opcode::Setcc
                            | Opcode::Pop
                            | Opcode::Cvtsi2sd
                            | Opcode::Cvttsd2si
                            | Opcode::Cvtss2sd
                            | Opcode::Cvtsd2ss
                    );
                if !overwrites {
                    rs.push(reg_key(o).expect("register operand"));
                }
            }
            MOperand::Mem { base, .. } => rs.push(*base as u16),
            _ => {}
        }
    }
    rs
}

/// The register an instruction defines, if any. Calls clobber the return
/// register (`r0` in our ABI).
fn def_of(inst: &khaos_binary::MInst, pool: &[MOperand]) -> Option<u16> {
    if matches!(inst.opcode, Opcode::Call | Opcode::CallInd) {
        return Some(0);
    }
    if !writes_dest(inst.opcode) {
        return None;
    }
    inst.operands(pool).first().and_then(reg_key)
}

/// Per-block data-flow summary for the one-hop inter-block join.
struct BlockSummary {
    /// class of the last write to each register still live at block end.
    out_defs: HashMap<u16, &'static str>,
    /// class of the first read of each register before any write to it.
    exposed_uses: HashMap<u16, &'static str>,
}

/// Emits this block's intra-block edges into `vec` and returns its summary.
fn scan_block(
    b: &BinBlock,
    pool: &[MOperand],
    vec: &mut [f64],
    chain_lens: &mut Vec<u32>,
) -> BlockSummary {
    // reg -> (class of def, chain length so far)
    let mut last_def: HashMap<u16, (&'static str, u32)> = HashMap::new();
    let mut exposed: HashMap<u16, &'static str> = HashMap::new();

    for inst in &b.insts {
        let uclass = opcode_class(inst.opcode);
        let mut depth_in: u32 = 0;
        for r in reads_of(inst, pool) {
            match last_def.get(&r) {
                Some((dclass, depth)) => {
                    add_token(vec, &format!("df:{dclass}->{uclass}"), 1.0);
                    depth_in = depth_in.max(*depth);
                }
                None => {
                    exposed.entry(r).or_insert(uclass);
                }
            }
        }
        // Memory dependence: a store and a later load of the same slot.
        if inst.opcode == Opcode::Load {
            add_token(vec, "df:memread", 0.25);
        }
        if inst.opcode == Opcode::Store {
            add_token(vec, "df:memwrite", 0.25);
        }
        if let Some(d) = def_of(inst, pool) {
            let depth = depth_in + 1;
            if inst.opcode == Opcode::Ret {
                continue;
            }
            last_def.insert(d, (uclass, depth));
            chain_lens.push(depth);
        }
    }

    // Store→load same-slot edges (exact within the block).
    let mut stores: HashMap<(u8, i32), &'static str> = HashMap::new();
    for inst in &b.insts {
        match inst.opcode {
            Opcode::Store => {
                if let Some(MOperand::Mem { base, offset }) = inst.operands(pool).first() {
                    stores.insert((*base, *offset), "store");
                }
            }
            Opcode::Load => {
                if let Some(MOperand::Mem { base, offset }) = inst.operands(pool).get(1) {
                    if stores.contains_key(&(*base, *offset)) {
                        add_token(vec, "df:st->ld", 1.0);
                    }
                }
            }
            _ => {}
        }
    }

    BlockSummary {
        out_defs: last_def.into_iter().map(|(r, (c, _))| (r, c)).collect(),
        exposed_uses: exposed,
    }
}

/// Embeds one function as its data-flow signature.
fn embed_function(f: &BinFunction) -> Vec<f64> {
    let mut vec = vec![0.0; EMB_DIM];
    let mut chain_lens: Vec<u32> = Vec::new();
    let summaries: Vec<BlockSummary> = f
        .blocks
        .iter()
        .map(|b| scan_block(b, &f.operand_pool, &mut vec, &mut chain_lens))
        .collect();

    // One-hop inter-block join: defs flowing into successors' exposed uses.
    for (bi, b) in f.blocks.iter().enumerate() {
        for &s in &b.succs {
            let Some(succ) = summaries.get(s as usize) else {
                continue;
            };
            for (r, dclass) in &summaries[bi].out_defs {
                if let Some(uclass) = succ.exposed_uses.get(r) {
                    add_token(&mut vec, &format!("xdf:{dclass}->{uclass}"), 0.5);
                }
            }
        }
    }

    // Chain-shape statistics: bucketed def-use chain depths. These survive
    // code motion (the chain moves wholesale) but distinguish functions
    // with different computation depth.
    for d in &chain_lens {
        let bucket = match d {
            1 => "d1",
            2 => "d2",
            3..=4 => "d3",
            _ => "d5",
        };
        add_token(&mut vec, &format!("chain:{bucket}"), 0.5);
    }

    // L2-normalize so function size cancels: a sepFunc holding half the
    // chains of its oriFunc must still point in the same direction.
    let norm: f64 = vec.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut vec {
            *x /= norm;
        }
    }
    vec
}

/// One propagation round along direct call edges: each function's
/// data-flow signature absorbs its callees' (mean, dampened by `weight`),
/// re-normalized. This follows chains across the call boundaries fission
/// introduces.
fn propagate(bin: &Binary, raw: &[Vec<f64>], weight: f64) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(raw.len());
    for (i, f) in bin.functions.iter().enumerate() {
        let callees: Vec<usize> = f
            .blocks
            .iter()
            .flat_map(|b| &b.calls)
            .filter_map(|c| match c {
                khaos_binary::SymRef::Func(j) => Some(*j as usize),
                _ => None,
            })
            .filter(|&j| j != i && j < raw.len())
            .collect();
        let mut v = raw[i].clone();
        if !callees.is_empty() {
            let w = weight / callees.len() as f64;
            for &j in &callees {
                for (x, y) in v.iter_mut().zip(&raw[j]) {
                    *x += w * y;
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
        }
        out.push(v);
    }
    out
}

impl DataFlowDiff {
    /// The callee-propagated target view, derived from the (already
    /// normalized) raw target rows and cached under its own tool name.
    /// The single source of the `"DataFlowDiff#prop"` cache entry —
    /// both the batched matrix and the streaming scorer fetch through
    /// here, so the two paths can never diverge on what the key holds.
    fn propagated_target(
        &self,
        cache: &crate::EmbeddingCache,
        te: &crate::FunctionEmbeddings,
        target: &Binary,
        target_fingerprint: u64,
    ) -> std::sync::Arc<crate::FunctionEmbeddings> {
        let cfg = self.config_fingerprint();
        cache.get_or_embed(("DataFlowDiff#prop", cfg, target_fingerprint), || {
            let t_raw: Vec<Vec<f64>> = (0..te.len()).map(|i| te.row(i).to_vec()).collect();
            propagate(target, &t_raw, self.callee_weight)
        })
    }
}

impl Differ for DataFlowDiff {
    fn name(&self) -> &'static str {
        "DataFlowDiff"
    }

    fn config_fingerprint(&self) -> u64 {
        self.callee_weight.to_bits()
    }

    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>> {
        bin.functions.iter().map(embed_function).collect()
    }

    /// Asymmetric matching. The query side (the analyst's reference
    /// build) keeps its complete intra-procedural signature. The target
    /// side is matched under **both** views — raw, and with one round of
    /// callee propagation — and the better one wins. When fission has
    /// moved half a body into `sepFunc`s, the propagated view of the
    /// `remFunc` re-assembles the original chain signature; on untouched
    /// functions the raw view dominates, so the propagation can only
    /// help, never pollute.
    fn similarity_matrix(&self, query: &Binary, target: &Binary) -> Vec<Vec<f64>> {
        use crate::vector::cosine;
        let q = self.embed(query);
        let t_raw = self.embed(target);
        if self.callee_weight == 0.0 {
            return q
                .iter()
                .map(|qi| t_raw.iter().map(|tj| cosine(qi, tj).max(0.0)).collect())
                .collect();
        }
        let t_prop = propagate(target, &t_raw, self.callee_weight);
        q.iter()
            .map(|qi| {
                t_raw
                    .iter()
                    .zip(&t_prop)
                    .map(|(tr, tp)| cosine(qi, tr).max(cosine(qi, tp)).max(0.0))
                    .collect()
            })
            .collect()
    }

    /// Batched form of the asymmetric two-view matching above: one
    /// matrix per target view (raw, callee-propagated) from cached
    /// normalized embeddings, merged elementwise. Clamping commutes
    /// with the elementwise max, so this matches the legacy path.
    fn batched_similarity_keyed(
        &self,
        query: &khaos_binary::Binary,
        target: &khaos_binary::Binary,
        cache: &crate::EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> crate::SimilarityMatrix {
        use crate::SimilarityMatrix;
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        let mut m = SimilarityMatrix::from_embeddings(&qe, &te);
        if self.callee_weight != 0.0 {
            let tp = self.propagated_target(cache, &te, target, target_fingerprint);
            m.merge_max(&SimilarityMatrix::from_embeddings(&qe, &tp));
        }
        m
    }

    /// Streaming form of the two-view matching: per cell, the max of
    /// the raw and callee-propagated clamped dot products — exactly the
    /// `merge_max` of the two matrices the batched path builds.
    fn row_scorer_keyed<'a>(
        &'a self,
        query: &'a khaos_binary::Binary,
        target: &'a khaos_binary::Binary,
        cache: &crate::EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> Box<dyn crate::engine::RowScore + 'a> {
        use crate::engine::EmbedScorer;
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        if self.callee_weight == 0.0 {
            return Box::new(EmbedScorer::new(qe, te, true));
        }
        let tp = self.propagated_target(cache, &te, target, target_fingerprint);
        Box::new(TwoViewScorer {
            raw: EmbedScorer::new(std::sync::Arc::clone(&qe), te, true),
            propagated: EmbedScorer::new(qe, tp, true),
        })
    }
}

/// Best-of-two-views [`crate::engine::RowScore`]: raw vs
/// callee-propagated target embeddings.
struct TwoViewScorer {
    raw: crate::engine::EmbedScorer,
    propagated: crate::engine::EmbedScorer,
}

impl crate::engine::RowScore for TwoViewScorer {
    fn rows(&self) -> usize {
        crate::engine::RowScore::rows(&self.raw)
    }
    fn cols(&self) -> usize {
        crate::engine::RowScore::cols(&self.raw)
    }
    fn score(&self, qi: usize, j: usize) -> f64 {
        crate::engine::RowScore::score(&self.raw, qi, j).max(crate::engine::RowScore::score(
            &self.propagated,
            qi,
            j,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;
    use khaos_binary::{MInst, SymRef};

    #[test]
    fn def_use_roles() {
        let mut pool = Vec::new();
        let add = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(1), MOperand::Reg(2)],
        );
        assert_eq!(def_of(&add, &pool), Some(1));
        assert_eq!(
            reads_of(&add, &pool),
            vec![1, 2],
            "two-address add reads its dest"
        );

        let mv = MInst::alloc(
            &mut pool,
            Opcode::Mov,
            &[MOperand::Reg(1), MOperand::Reg(2)],
        );
        assert_eq!(def_of(&mv, &pool), Some(1));
        assert_eq!(
            reads_of(&mv, &pool),
            vec![2],
            "mov overwrites without reading"
        );

        let st = MInst::alloc(
            &mut pool,
            Opcode::Store,
            &[
                MOperand::Mem {
                    base: 5,
                    offset: -8,
                },
                MOperand::Reg(3),
            ],
        );
        assert_eq!(def_of(&st, &pool), None);
        assert_eq!(
            reads_of(&st, &pool),
            vec![5, 3],
            "store reads base and value"
        );

        let call = MInst::alloc(&mut pool, Opcode::Call, &[MOperand::Sym(SymRef::Func(0))]);
        assert_eq!(
            def_of(&call, &pool),
            Some(0),
            "call clobbers the return register"
        );
    }

    #[test]
    fn float_registers_are_distinct_slots() {
        let mut pool = Vec::new();
        let a = MInst::alloc(
            &mut pool,
            Opcode::Addsd,
            &[MOperand::FReg(1), MOperand::FReg(2)],
        );
        assert_eq!(def_of(&a, &pool), Some(0x101));
        assert_eq!(reads_of(&a, &pool), vec![0x101, 0x102]);
    }

    #[test]
    fn self_similarity_is_one() {
        let b = small_binary("x");
        let t = DataFlowDiff::new();
        let m = t.similarity_matrix(&b, &b);
        for (i, row) in m.iter().enumerate() {
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            assert_eq!(best.0, i, "function {i} matches itself");
            assert!(*best.1 > 0.999);
        }
    }

    #[test]
    fn distinguishes_different_computations() {
        let b = small_binary("x");
        let t = DataFlowDiff::new();
        let e = t.embed(&b);
        // alpha (loopy accumulator) vs beta (branchy bit-twiddler) must not
        // be confusable.
        let sim = cosine(&e[0], &e[1]);
        assert!(sim < 0.98, "distinct functions stay distinguishable: {sim}");
    }

    #[test]
    fn embedding_is_size_invariant_in_direction() {
        // A function and "the same function twice" (duplicated block) point
        // the same way: the L2 normalization makes sub-function matching
        // possible after fission.
        let b = small_binary("x");
        let mut doubled = b.clone();
        let extra = doubled.functions[0].blocks.clone();
        doubled.functions[0].blocks.extend(extra);
        // Fix up successor indices of the copied tail so they stay in range
        // (shape only matters for the one-hop join; clamp).
        let n = doubled.functions[0].blocks.len() as u32;
        for blk in &mut doubled.functions[0].blocks {
            for s in &mut blk.succs {
                *s %= n;
            }
        }
        let t = DataFlowDiff::new();
        let e1 = t.embed(&b);
        let e2 = t.embed(&doubled);
        let sim = cosine(&e1[0], &e2[0]);
        assert!(
            sim > 0.95,
            "doubling the body barely moves the direction: {sim}"
        );
    }

    #[test]
    fn store_load_dependence_detected() {
        use khaos_binary::{BinBlock, BinFunction, BinProvenance};
        let mk = |with_reload: bool| {
            let mut pool = Vec::new();
            let mut blk = BinBlock::default();
            blk.push_inst(
                &mut pool,
                Opcode::Store,
                &[
                    MOperand::Mem {
                        base: 5,
                        offset: -16,
                    },
                    MOperand::Reg(1),
                ],
            );
            if with_reload {
                blk.push_inst(
                    &mut pool,
                    Opcode::Load,
                    &[
                        MOperand::Reg(2),
                        MOperand::Mem {
                            base: 5,
                            offset: -16,
                        },
                    ],
                );
            }
            blk.push_inst(&mut pool, Opcode::Ret, &[]);
            Binary {
                build_provenance: 0,
                name: "t".into(),
                functions: vec![BinFunction {
                    name: Some("f".into()),
                    provenance: BinProvenance {
                        origins: vec!["f".into()],
                        annotations: vec![],
                    },
                    exported: false,
                    blocks: vec![blk],
                    operand_pool: pool,
                }],
                relocations: vec![],
                externals: vec![],
                stripped: false,
            }
        };
        let t = DataFlowDiff::new();
        let with = t.embed(&mk(true));
        let without = t.embed(&mk(false));
        assert!(
            cosine(&with[0], &without[0]) < 1.0 - 1e-9,
            "the st->ld edge must contribute"
        );
    }
}
