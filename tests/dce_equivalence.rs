//! Differential oracle for `khaos_opt::dce`.
//!
//! The sparse-worklist DCE must produce exactly the `Function` (and the
//! removed count) of the classic iterative DCE it replaced, which is
//! frozen below as the oracle. Checked after every DCE call of the
//! `O2+lto` schedule on the quick Figure-10 grid (baseline plus the six
//! obfuscation configs), and on hand-built functions for each liveness
//! convention the output depends on.
//!
//! The word-parallel `Liveness` solve both DCE and fission start from is
//! pinned here too, against the dataflow framework's `LiveVariables`, on
//! every function of one obfuscated T-III build.

use khaos::ir::analysis::dataflow::{solve, LiveVariables};
use khaos::ir::analysis::liveness::LocalSet;
use khaos::ir::builder::FunctionBuilder;
use khaos::ir::{BinOp, BlockId, Callee, Cfg, CmpPred, Function, Inst, Liveness, Module};
use khaos::ir::{Operand, Term, Type};
use khaos::opt::inline::{self, InlineOptions};
use khaos::opt::{constprop, cse, dce, dfe, mem2reg, optimize, simplifycfg, OptOptions};
use khaos::pass::{PassCtx, Pipeline};
use khaos_bench::experiments::fig10_configs;
use khaos_bench::{build_baseline, build_config, SEED};

/// The iterative DCE as it stood before the worklist rewrite: recompute
/// the CFG and liveness, sweep every block backwards, repeat until a
/// sweep removes nothing.
fn oracle_dce(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let cfg = Cfg::compute(f);
        let lv = Liveness::compute(f, &cfg);
        let mut round = 0;
        for (b, block) in f.blocks.iter_mut().enumerate() {
            let mut live: LocalSet = lv.live_out(BlockId::new(b)).clone();
            block.term.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    live.insert(l);
                }
            });
            let mut keep = vec![true; block.insts.len()];
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let dead = match inst.def() {
                    Some(d) => !live.contains(d),
                    None => false,
                };
                if dead && inst.is_pure() {
                    keep[i] = false;
                    round += 1;
                    continue;
                }
                if let Some(d) = inst.def() {
                    live.remove(d);
                }
                inst.for_each_use(|o| {
                    if let Some(l) = o.as_local() {
                        live.insert(l);
                    }
                });
            }
            if round > 0 {
                let mut it = keep.iter();
                block.insts.retain(|_| *it.next().expect("keep mask aligned"));
            }
        }
        if round == 0 {
            return removed;
        }
        removed += round;
    }
}

/// Runs `dce::run_function` on `f` and the oracle on a copy, and asserts
/// both give the same function and the same count.
fn checked_dce(f: &mut Function, calls: &mut usize) -> usize {
    let mut want = f.clone();
    let want_removed = oracle_dce(&mut want);
    let removed = dce::run_function(f);
    assert_eq!(removed, want_removed, "removed count on `{}`", f.name);
    if *f != want {
        let b = (0..f.blocks.len()).find(|&b| f.blocks[b] != want.blocks[b]);
        panic!("`{}` differs from the oracle, first at block {b:?}", f.name);
    }
    *calls += 1;
    removed
}

/// `khaos_opt::optimize`'s `O2+lto` schedule, with every DCE call checked.
fn o2lto_checked(m: &mut Module, calls: &mut usize) {
    let scalar = |m: &mut Module, calls: &mut usize| {
        for f in &mut m.functions {
            mem2reg::run_function(f);
            constprop::run_function(f);
            cse::run_function(f);
            checked_dce(f, calls);
            simplifycfg::run_function(f);
        }
    };
    scalar(m, calls);
    inline::run_module(m, &InlineOptions { threshold: 48, allow_exported: true });
    scalar(m, calls);
    dfe::run_module(m);
}

#[test]
fn worklist_dce_matches_iterative_dce_on_fig10_builds() {
    // The `Scope::Quick` Figure-10 programs: the first two T-III.
    let programs = &khaos::workloads::tiii()[..2];
    let mut calls = 0;
    for src in programs {
        let mut base = src.clone();
        o2lto_checked(&mut base, &mut calls);
        assert!(base == build_baseline(src), "{}: schedule replay diverged", src.name);
        for (name, config) in fig10_configs() {
            let spec = config.spec();
            let prefix = spec.strip_suffix(" | O2+lto").expect("obfuscation atom, then O2+lto");
            let mut m = base.clone();
            let obfuscate = Pipeline::parse(prefix).expect("config atom parses");
            obfuscate
                .run(&mut m, &mut PassCtx::new(SEED))
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", src.name));
            o2lto_checked(&mut m, &mut calls);
            assert!(m == build_config(&base, config), "{name} on {}: replay diverged", src.name);
        }
    }
    assert!(calls > 1000, "only {calls} DCE calls checked");
}

/// Asserts that `Liveness` and `LiveVariables` agree on every reachable
/// block of every function of `m`.
fn assert_liveness_pinned(m: &Module) {
    for f in &m.functions {
        let cfg = Cfg::compute(f);
        let lv = Liveness::compute(f, &cfg);
        let sol = solve(&LiveVariables, f, &cfg);
        for &b in cfg.rpo() {
            assert_eq!(lv.live_in(b), &sol.block_in[b.index()], "in {b} of {}", f.name);
            assert_eq!(lv.live_out(b), &sol.block_out[b.index()], "out {b} of {}", f.name);
        }
    }
}

#[test]
fn liveness_matches_live_variables_on_an_obfuscated_build() {
    // quickjs: setjmp and exception handling, so invokes and pads.
    let src = &khaos::workloads::tiii()[1];
    let mut m = build_baseline(src);
    Pipeline::parse("fufi_all")
        .expect("atom parses")
        .run(&mut m, &mut PassCtx::new(SEED))
        .expect("fufi_all builds");
    assert!(m.functions.len() > 100);
    assert_liveness_pinned(&m); // as DCE and fission first see it
    optimize(&mut m, &OptOptions::baseline());
    assert_liveness_pinned(&m); // the finished build
}

/// Checks `f` against the oracle and returns the optimized function and
/// the removed count.
fn check(mut f: Function) -> (Function, usize) {
    let removed = checked_dce(&mut f, &mut 0);
    (f, removed)
}

#[test]
fn dead_self_cycle_survives() {
    // h: t = x + 1; x = t; loop while p > 0. Nothing reads x after the
    // loop, but x keeps itself live around the back edge.
    let mut fb = FunctionBuilder::new("cycle", Type::I64);
    let p = fb.add_param(Type::I64);
    let x = fb.new_local(Type::I64);
    let h = fb.new_block();
    let exit = fb.new_block();
    fb.copy_to(x, Operand::const_int(Type::I64, 0));
    fb.jump(h);
    fb.switch_to(h);
    let t = fb.bin(BinOp::Add, Type::I64, Operand::local(x), Operand::const_int(Type::I64, 1));
    fb.copy_to(x, Operand::local(t));
    let c = fb.cmp(CmpPred::Sgt, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 0));
    fb.branch(Operand::local(c), h, exit);
    fb.switch_to(exit);
    fb.ret(Some(Operand::local(p)));
    let (f, removed) = check(fb.finish());
    assert_eq!(removed, 0, "the dead cycle is kept");
    assert_eq!(f.blocks[1].insts.len(), 3);
}

#[test]
fn unreachable_block_sees_empty_live_out() {
    // u is unreachable and defines y, which only its (reachable)
    // successor s reads: u's live_out is empty, so its def goes.
    let mut fb = FunctionBuilder::new("unreach", Type::I64);
    let p = fb.add_param(Type::I64);
    let y = fb.new_local(Type::I64);
    let u = fb.new_block();
    let s = fb.new_block();
    fb.copy_to(y, Operand::local(p));
    fb.jump(s);
    fb.switch_to(u);
    let t = fb.bin(BinOp::Add, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 1));
    fb.copy_to(y, Operand::local(t));
    fb.jump(s);
    fb.switch_to(s);
    fb.ret(Some(Operand::local(y)));
    let (f, removed) = check(fb.finish());
    assert_eq!(removed, 2, "u's chain goes, entry's copy stays");
    assert!(f.blocks[u.index()].insts.is_empty());
    assert_eq!(f.blocks[0].insts.len(), 1);
}

/// entry: `r = 1; z = r + p; r = invoke *p(p)` to `normal` / `pad`,
/// where `pad` binds `r`. Either `normal` returns `r`, or the pad does
/// and `normal` only reads `r` in a dead instruction.
fn invoke_shape(pad_reads_r: bool) -> Function {
    let mut fb = FunctionBuilder::new("inv", Type::I64);
    let p = fb.add_param(Type::I64);
    let normal = fb.new_block();
    let r = fb.new_local(Type::I64);
    let pad = fb.new_pad_block(Some(r));
    fb.copy_to(r, Operand::const_int(Type::I64, 1));
    fb.bin(BinOp::Add, Type::I64, Operand::local(r), Operand::local(p));
    let dst = fb.invoke(
        Callee::Indirect(Operand::local(p)),
        Type::I64,
        vec![Operand::local(p)],
        normal,
        pad,
    );
    fb.switch_to(normal);
    if pad_reads_r {
        // A dead read: r stays live out of entry until it goes.
        fb.bin(BinOp::Add, Type::I64, Operand::local(r), Operand::const_int(Type::I64, 1));
    }
    fb.ret(Some(Operand::local(if pad_reads_r { p } else { r })));
    fb.switch_to(pad);
    fb.ret(Some(Operand::local(if pad_reads_r { r } else { p })));
    let mut f = fb.finish();
    // Make the invoke write `r` itself.
    let Term::Invoke { dst: d, .. } = &mut f.blocks[0].term else { unreachable!() };
    assert!(dst.is_some());
    *d = Some(r);
    f
}

#[test]
fn invoke_dst_is_not_killed_in_block() {
    // `normal` reads r, so r is live out of entry; the invoke's own def
    // of r does not kill it in the walk, so `r = 1` stays. `z` goes, and
    // its use of r sends r back through the worklist.
    let (f, removed) = check(invoke_shape(false));
    assert_eq!(removed, 1);
    assert!(matches!(f.blocks[0].insts[..], [Inst::Copy { .. }]));
}

#[test]
fn landing_pad_dst_is_a_def_at_the_top() {
    // Once `normal`'s dead read goes, only the pad reads r, and the pad
    // binds r itself: r is not live into the pad, so `r = 1` goes too.
    let (f, removed) = check(invoke_shape(true));
    assert_eq!(removed, 3);
    assert!(f.blocks[0].insts.is_empty());
}

#[test]
fn cross_block_dead_chain_goes_in_one_call() {
    // a -> b -> c across four blocks, c unused: the iterative loop needs
    // a round per link.
    let mut fb = FunctionBuilder::new("chain", Type::I64);
    let p = fb.add_param(Type::I64);
    let (b1, b2, b3) = (fb.new_block(), fb.new_block(), fb.new_block());
    let a = fb.bin(BinOp::Add, Type::I64, Operand::local(p), Operand::const_int(Type::I64, 1));
    fb.jump(b1);
    fb.switch_to(b1);
    let b = fb.bin(BinOp::Mul, Type::I64, Operand::local(a), Operand::const_int(Type::I64, 3));
    fb.jump(b2);
    fb.switch_to(b2);
    fb.bin(BinOp::Sub, Type::I64, Operand::local(b), Operand::local(a));
    fb.jump(b3);
    fb.switch_to(b3);
    fb.ret(Some(Operand::local(p)));
    let (f, removed) = check(fb.finish());
    assert_eq!(removed, 3);
    assert!(f.blocks.iter().all(|b| b.insts.is_empty()));
}
