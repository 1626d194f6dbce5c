//! CFG cleanups: unreachable-block removal, jump threading and linear
//! block merging.

use khaos_ir::rewrite::{remove_blocks, retarget_edges};
use khaos_ir::{BlockId, Cfg, Function, Term};

/// Runs CFG simplification to a fixed point. Returns true if anything
/// changed.
pub fn run_function(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut round = false;

        // 1. Drop unreachable blocks.
        let cfg = Cfg::compute(f);
        let dead: Vec<BlockId> =
            f.iter_blocks().map(|(b, _)| b).filter(|b| !cfg.is_reachable(*b)).collect();
        if !dead.is_empty() {
            remove_blocks(f, &dead);
            round = true;
        }

        // 2. Thread empty forwarding blocks (non-entry, no insts, plain
        //    jump, not a landing pad, does not jump to itself).
        for b in 1..f.blocks.len() {
            let bid = BlockId::new(b);
            let block = f.block(bid);
            if block.insts.is_empty() && !block.is_pad() {
                if let Term::Jump(t) = block.term {
                    if t != bid && !f.block(t).is_pad() {
                        retarget_edges(f, bid, t);
                        round = true;
                    }
                }
            }
        }

        // 3. Merge a block into its unique jump-successor when that
        //    successor has exactly one predecessor (and is not a pad).
        let cfg = Cfg::compute(f);
        for b in 0..f.blocks.len() {
            let bid = BlockId::new(b);
            if !cfg.is_reachable(bid) {
                continue;
            }
            let Term::Jump(t) = f.block(bid).term else { continue };
            if t == bid || t == f.entry() || f.block(t).is_pad() || cfg.preds(t).len() != 1 {
                continue;
            }
            // Splice t's body into b. t is unreachable afterwards and the
            // next round's step 1 removes it, so its instructions move.
            let insts = std::mem::take(&mut f.block_mut(t).insts);
            let term = f.block(t).term.clone();
            let this = f.block_mut(bid);
            this.insts.extend(insts);
            this.term = term;
            round = true;
            break; // block ids shifted logically; recompute
        }

        if !round {
            return changed;
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{CmpPred, Module, Operand, Type};

    #[test]
    fn removes_unreachable() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let dead = fb.new_block();
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        fb.switch_to(dead);
        fb.ret(Some(Operand::const_int(Type::I64, 1)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        assert_eq!(m.functions[0].blocks.len(), 1);
    }

    #[test]
    fn threads_empty_jump_blocks() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let hop1 = fb.new_block();
        let hop2 = fb.new_block();
        let end = fb.new_block();
        let c = fb.cmp(CmpPred::Sgt, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 0));
        fb.branch(Operand::local(c), hop1, hop2);
        fb.switch_to(hop1);
        fb.jump(end);
        fb.switch_to(hop2);
        fb.jump(end);
        fb.switch_to(end);
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        // Both hops threaded away and removed as unreachable.
        assert_eq!(m.functions[0].blocks.len(), 2);
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn merges_linear_chain() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let x = fb.iconst(Type::I64, 1);
        fb.jump(b1);
        fb.switch_to(b1);
        let y = fb.bin(khaos_ir::BinOp::Add, Type::I64, Operand::local(x), Operand::const_int(Type::I64, 1));
        fb.jump(b2);
        fb.switch_to(b2);
        fb.ret(Some(Operand::local(y)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        assert_eq!(m.functions[0].blocks.len(), 1, "whole chain merges into entry");
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn keeps_loops_intact() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let h = fb.new_block();
        let exit = fb.new_block();
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(CmpPred::Sgt, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 0));
        fb.branch(Operand::local(c), h, exit);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        khaos_ir::verify::assert_valid(&m);
        // The loop header must still exist (self edge prevents merging).
        let f = &m.functions[0];
        assert!(f.blocks.iter().any(|b| matches!(b.term, Term::Branch { .. })));
    }
}
