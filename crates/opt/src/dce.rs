//! Liveness-based dead code elimination for pure instructions.
//!
//! A pure instruction is dead when the local it defines is not live right
//! after it. [`run_function`] removes dead instructions until none is
//! left. Its result is exactly the fixpoint of the classic loop
//! "recompute the CFG and liveness, sweep every block backwards, repeat
//! until a sweep removes nothing", but it gets there with one CFG, one
//! [`Liveness`] solve and a sparse worklist:
//!
//! 1. One backward sweep over every block, as the classic loop's first
//!    round does.
//! 2. Every removal queues the locals the removed instruction read. For a
//!    queued local `v`, only `v`'s liveness is recomputed, by a backward
//!    walk from its upward-exposed uses that stops at blocks defining it.
//!    Then only the instructions that mention `v` are rewalked.
//! 3. Removed instructions are tombstoned and each block is compacted
//!    once at the end.
//!
//! The result does not depend on the order of removals. The liveness of
//! `v` depends only on the uses and defs of `v`, and removing a dead def
//! never makes anything live. So an instruction that is dead at some
//! point stays dead, and every order ends at the same least fixpoint.
//!
//! Liveness here is per path, not per value. A dead cycle such as
//! `x = x + 1` in a loop keeps `x` live through its own use, so it
//! survives. Faint-variable or mark-live elimination would remove it;
//! this pass deliberately keeps it, because the optimized output depends
//! on it. The walk also keeps [`Liveness`]'s conventions: unreachable
//! blocks see an empty `live_out`, a landing pad's dst is a def at the
//! top of its block, and an `Invoke` dst is a block-level def that the
//! in-block walk does not kill.

use khaos_ir::analysis::liveness::LocalSet;
use khaos_ir::{BlockId, Cfg, Function, Inst, Liveness, LocalId};

/// Removes pure instructions whose results are dead, to a fixpoint.
/// Returns the number of removed instructions.
pub fn run_function(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    let lv = Liveness::compute(f, &cfg);
    let mut tombs = Tombs::new(f);
    first_sweep(f, &lv, &mut tombs);
    if !tombs.queue.is_empty() {
        let occs = Occurrences::index(f, &tombs);
        let mut solve = LocalSolve::new(f.blocks.len());
        while let Some(v) = tombs.queue.pop() {
            tombs.queued[v.index()] = false;
            solve.revisit(f, &cfg, occs.of(v), &mut tombs);
        }
    }
    tombs.compact(f)
}

/// The classic loop's first round: one backward walk per block from the
/// solved `live_out`, with a running live set.
fn first_sweep(f: &Function, lv: &Liveness, tombs: &mut Tombs) {
    let mut live = LocalSet::new(f.locals.len());
    for (b, block) in f.iter_blocks() {
        live.clone_from(lv.live_out(b));
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                live.insert(l);
            }
        });
        for (i, inst) in block.insts.iter().enumerate().rev() {
            if let Some(d) = inst.def() {
                if !live.contains(d) && inst.is_pure() {
                    tombs.kill(b.index(), i, inst);
                    continue;
                }
                live.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    live.insert(l);
                }
            });
        }
    }
}

/// Removal marks, plus the queue of locals that lost a use.
struct Tombs {
    /// `start[b]..start[b + 1]` are block `b`'s slots in `dead`.
    start: Vec<usize>,
    dead: Vec<bool>,
    removed: usize,
    queue: Vec<LocalId>,
    queued: Vec<bool>,
}

impl Tombs {
    fn new(f: &Function) -> Self {
        let mut start = Vec::with_capacity(f.blocks.len() + 1);
        let mut n = 0;
        start.push(0);
        for block in &f.blocks {
            n += block.insts.len();
            start.push(n);
        }
        Tombs {
            start,
            dead: vec![false; n],
            removed: 0,
            queue: Vec::new(),
            queued: vec![false; f.locals.len()],
        }
    }

    /// False only when `pos` (an [`Occ`] position in block `b`) is a
    /// removed instruction.
    fn kept(&self, b: usize, pos: u32) -> bool {
        let slot = self.start[b] + pos as usize;
        pos == 0 || slot > self.start[b + 1] || !self.dead[slot - 1]
    }

    /// Removes instruction `i` of block `b` and queues the locals it read.
    fn kill(&mut self, b: usize, i: usize, inst: &Inst) {
        self.dead[self.start[b] + i] = true;
        self.removed += 1;
        inst.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                if !self.queued[l.index()] {
                    self.queued[l.index()] = true;
                    self.queue.push(l);
                }
            }
        });
    }

    /// Drops every tombstoned instruction; returns how many there were.
    fn compact(&self, f: &mut Function) -> usize {
        if self.removed > 0 {
            for (b, block) in f.blocks.iter_mut().enumerate() {
                let dead = &self.dead[self.start[b]..self.start[b + 1]];
                if dead.contains(&true) {
                    let mut it = dead.iter();
                    block.insts.retain(|_| !*it.next().expect("dead mask aligned"));
                }
            }
        }
        self.removed
    }
}

/// The position reads the local.
const USE: u8 = 1;
/// The position writes the local.
const DEF: u8 = 2;

/// One position that mentions a local.
#[derive(Clone, Copy, Default)]
struct Occ {
    block: u32,
    /// 0 is the landing pad, `i + 1` is instruction `i`, `insts.len() + 1`
    /// is the terminator.
    pos: u32,
    /// `USE` and/or `DEF`.
    kind: u8,
}

/// Every mention of every local, grouped by local and sorted by
/// `(block, pos)`. Built once, after the first sweep; later removals only
/// make it a superset, and the walks skip tombstoned positions.
struct Occurrences {
    start: Vec<u32>,
    end: Vec<u32>,
    occ: Vec<Occ>,
}

impl Occurrences {
    fn index(f: &Function, tombs: &Tombs) -> Self {
        let nl = f.locals.len();
        let mut start = vec![0u32; nl + 1];
        for_each_mention(f, tombs, |l, _, _, _| start[l.index() + 1] += 1);
        for l in 0..nl {
            start[l + 1] += start[l];
        }
        let mut end = start[..nl].to_vec();
        let mut occ = vec![Occ::default(); start[nl] as usize];
        for_each_mention(f, tombs, |l, block, pos, kind| {
            let (s, e) = (start[l.index()] as usize, &mut end[l.index()]);
            if let Some(last) = occ[s..*e as usize].last_mut() {
                if last.block == block && last.pos == pos {
                    last.kind |= kind;
                    return;
                }
            }
            occ[*e as usize] = Occ { block, pos, kind };
            *e += 1;
        });
        Occurrences { start, end, occ }
    }

    fn of(&self, v: LocalId) -> &[Occ] {
        &self.occ[self.start[v.index()] as usize..self.end[v.index()] as usize]
    }
}

/// Visits every use and def of every kept position, in block and
/// position order, uses of a position before its def.
fn for_each_mention(f: &Function, tombs: &Tombs, mut visit: impl FnMut(LocalId, u32, u32, u8)) {
    for (b, block) in f.iter_blocks() {
        let bb = b.index() as u32;
        if let Some(d) = block.pad.as_ref().and_then(|p| p.dst) {
            visit(d, bb, 0, DEF);
        }
        for (i, inst) in block.insts.iter().enumerate() {
            let pos = i as u32 + 1;
            if !tombs.kept(b.index(), pos) {
                continue;
            }
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    visit(l, bb, pos, USE);
                }
            });
            if let Some(d) = inst.def() {
                visit(d, bb, pos, DEF);
            }
        }
        let pos = block.insts.len() as u32 + 1;
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                visit(l, bb, pos, USE);
            }
        });
        if let Some(d) = block.term.def() {
            visit(d, bb, pos, DEF);
        }
    }
}

/// Per-block facts of one local, for a single-local liveness solve.
const GEN: u8 = 1;
const KILL: u8 = 2;
const IN: u8 = 4;
const OUT: u8 = 8;

/// Scratch for re-solving one local's liveness; all-zero between calls.
struct LocalSolve {
    flags: Vec<u8>,
    touched: Vec<usize>,
    stack: Vec<usize>,
}

impl LocalSolve {
    fn new(blocks: usize) -> Self {
        LocalSolve { flags: vec![0; blocks], touched: Vec::new(), stack: Vec::new() }
    }

    /// Recomputes the liveness of the local mentioned by `occs` and
    /// rewalks the blocks that define it, removing the defs now dead.
    fn revisit(&mut self, f: &Function, cfg: &Cfg, occs: &[Occ], tombs: &mut Tombs) {
        // Per-block gen/kill over the kept positions; gen blocks seed the
        // walk when reachable.
        for group in occs.chunk_by(|a, b| a.block == b.block) {
            let b = group[0].block as usize;
            let mut first = None;
            let mut flags = 0;
            for o in group.iter().filter(|o| tombs.kept(b, o.pos)) {
                first.get_or_insert(o.kind);
                if o.kind & DEF != 0 {
                    flags |= KILL;
                }
            }
            if first.is_some_and(|k| k & USE != 0) {
                flags |= GEN;
                if cfg.is_reachable(BlockId::new(b)) {
                    flags |= IN;
                    self.stack.push(b);
                }
            }
            self.flags[b] = flags;
            self.touched.push(b);
        }
        // Backward walk over reachable predecessors; a defining block
        // gets the local live-out but does not pass it further up.
        while let Some(b) = self.stack.pop() {
            for &p in cfg.preds(BlockId::new(b)) {
                let p = p.index();
                if self.flags[p] & OUT != 0 || !cfg.is_reachable(BlockId::new(p)) {
                    continue;
                }
                self.flags[p] |= OUT;
                self.touched.push(p);
                if self.flags[p] & (KILL | IN) == 0 {
                    self.flags[p] |= IN;
                    self.stack.push(p);
                }
            }
        }
        // Rewalk the defining blocks backwards over this local's mentions.
        for group in occs.chunk_by(|a, b| a.block == b.block) {
            let b = group[0].block as usize;
            if self.flags[b] & KILL == 0 {
                continue;
            }
            let insts = &f.blocks[b].insts;
            let mut live = self.flags[b] & OUT != 0;
            for o in group.iter().rev() {
                let pos = o.pos as usize;
                if pos > insts.len() {
                    // The terminator reads before the walk; its def (an
                    // `Invoke` dst) does not kill.
                    live |= o.kind & USE != 0;
                    continue;
                }
                if pos == 0 || !tombs.kept(b, o.pos) {
                    continue;
                }
                if o.kind & DEF != 0 {
                    let inst = &insts[pos - 1];
                    if !live && inst.is_pure() {
                        tombs.kill(b, pos - 1, inst);
                        continue;
                    }
                    live = false;
                }
                if o.kind & USE != 0 {
                    live = true;
                }
            }
        }
        for b in self.touched.drain(..) {
            self.flags[b] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Inst, Module, Operand, Type};

    #[test]
    fn removes_unused_chain() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.bin(BinOp::Add, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 1));
        let _b = fb.bin(BinOp::Mul, Type::I64, Operand::local(a), Operand::const_int(Type::I64, 2));
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 2, "whole dead chain removed");
        assert!(m.functions[0].blocks[0].insts.is_empty());
    }

    #[test]
    fn keeps_impure_instructions() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8); // impure (frame effect), result unused below
        fb.store(Type::I64, Operand::const_int(Type::I64, 1), Operand::local(p));
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 0);
        assert_eq!(m.functions[0].blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_dead_looking_but_live_across_blocks() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let nxt = fb.new_block();
        fb.copy_to(x, Operand::local(p)); // only used in the next block
        fb.jump(nxt);
        fb.switch_to(nxt);
        fb.ret(Some(Operand::local(x)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 0);
    }

    #[test]
    fn removes_dead_store_to_register_but_not_memory() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let x = fb.new_local(Type::I64);
        fb.copy_to(x, Operand::const_int(Type::I64, 1)); // overwritten below
        fb.copy_to(x, Operand::const_int(Type::I64, 2));
        fb.ret(Some(Operand::local(x)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 1, "first copy is a dead register write");
        assert!(matches!(
            &m.functions[0].blocks[0].insts[0],
            Inst::Copy { src: Operand::Const(c), .. } if c.normalized() == Some(2)
        ));
    }
}
