//! Dense block liveness over LIR virtual registers.
//!
//! Virtual registers of a function are numbered `0..num_vregs`, so sets of
//! them are bitsets indexed by [`dense`]: the register's own number, with
//! [`RETV`] at the one extra index `num_vregs`. One fixpoint solver serves
//! both the unscheduled LIR (the scheduler's exit-liveness test) and the
//! scheduled function (the register allocator's intervals); only the op
//! order differs.

use crate::lir::{LOp, LTarget, RETV};
use crate::sched::{effective_defs, effective_reads};
use asip_ir::inst::VReg;

/// Dense index of `v` in a function with `num_vregs` virtual registers.
pub(crate) fn dense(v: VReg, num_vregs: u32) -> usize {
    if v == RETV {
        num_vregs as usize
    } else {
        v.0 as usize
    }
}

/// A fixed-universe bitset of dense register indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VRegSet {
    words: Vec<u64>,
}

impl VRegSet {
    /// The empty set over indices `0..universe`.
    pub(crate) fn new(universe: usize) -> VRegSet {
        VRegSet {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    pub(crate) fn union_with(&mut self, other: &VRegSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    k * 64 + b
                })
            })
        })
    }
}

/// Per-block live-in and live-out sets of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Liveness {
    pub(crate) live_in: Vec<VRegSet>,
    pub(crate) live_out: Vec<VRegSet>,
}

impl Liveness {
    /// Solve liveness for blocks given as op sequences in execution order.
    /// A block's successors are the targets of its branches; reads
    /// and defs include the implicit [`RETV`] ones.
    pub(crate) fn solve<'a, B, I>(num_vregs: u32, blocks: B) -> Liveness
    where
        B: IntoIterator<Item = I>,
        I: IntoIterator<Item = &'a LOp>,
    {
        let universe = num_vregs as usize + 1;
        let mut uses = Vec::new();
        let mut defs = Vec::new();
        let mut succ: Vec<Vec<u32>> = Vec::new();
        for ops in blocks {
            let (mut u, mut d, mut s) = (VRegSet::new(universe), VRegSet::new(universe), vec![]);
            for op in ops {
                for r in effective_reads(op).map(|r| dense(r, num_vregs)) {
                    if !d.contains(r) {
                        u.insert(r);
                    }
                }
                for r in effective_defs(op) {
                    d.insert(dense(r, num_vregs));
                }
                if let (true, LTarget::Block(t)) = (op.is_branch(), op.target) {
                    s.push(t);
                }
            }
            uses.push(u);
            defs.push(d);
            succ.push(s);
        }
        let n = uses.len();
        let mut live = Liveness {
            live_in: vec![VRegSet::new(universe); n],
            live_out: vec![VRegSet::new(universe); n],
        };
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let out = &mut live.live_out[i];
                out.words.fill(0);
                for &s in &succ[i] {
                    out.union_with(&live.live_in[s as usize]);
                }
                // live_in = uses ∪ (live_out − defs)
                let words = uses[i].words.iter().zip(&out.words).zip(&defs[i].words);
                for (w, ((&u, &o), &d)) in live.live_in[i].words.iter_mut().zip(words) {
                    let next = u | (o & !d);
                    changed |= next != *w;
                    *w = next;
                }
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LBlock, LFunc, LVal};
    use crate::sched::ScheduledFunc;
    use asip_isa::{MachineDescription, Opcode};
    use std::collections::BTreeSet;

    /// The register a dense index stands for (inverse of [`dense`]).
    fn vreg_at(i: usize, num_vregs: u32) -> VReg {
        if i == num_vregs as usize {
            RETV
        } else {
            VReg(i as u32)
        }
    }

    /// The textbook set-based fixpoint the dense solver replaced.
    fn reference(blocks: &[Vec<&LOp>]) -> Vec<(BTreeSet<VReg>, BTreeSet<VReg>)> {
        let n = blocks.len();
        let mut uses = vec![BTreeSet::new(); n];
        let mut defs = vec![BTreeSet::new(); n];
        let mut succ = vec![Vec::new(); n];
        for (i, ops) in blocks.iter().enumerate() {
            for op in ops {
                for r in effective_reads(op) {
                    if !defs[i].contains(&r) {
                        uses[i].insert(r);
                    }
                }
                defs[i].extend(effective_defs(op));
                if let (true, LTarget::Block(t)) = (op.is_branch(), op.target) {
                    succ[i].push(t as usize);
                }
            }
        }
        let mut live: Vec<(BTreeSet<VReg>, BTreeSet<VReg>)> = vec![Default::default(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let out: BTreeSet<VReg> = succ[i].iter().flat_map(|&s| live[s].0.clone()).collect();
                let mut inp = uses[i].clone();
                inp.extend(out.difference(&defs[i]));
                changed |= inp != live[i].0;
                live[i] = (inp, out);
            }
        }
        live
    }

    fn assert_matches(num_vregs: u32, blocks: &[Vec<&LOp>], what: &str) {
        let dense_sets = Liveness::solve(num_vregs, blocks.iter().map(|b| b.iter().copied()));
        let decode =
            |s: &VRegSet| -> BTreeSet<VReg> { s.iter().map(|i| vreg_at(i, num_vregs)).collect() };
        for (i, (inp, out)) in reference(blocks).into_iter().enumerate() {
            assert_eq!(
                decode(&dense_sets.live_in[i]),
                inp,
                "{what}: live-in of block {i}"
            );
            assert_eq!(
                decode(&dense_sets.live_out[i]),
                out,
                "{what}: live-out of block {i}"
            );
        }
    }

    fn lir_blocks(f: &LFunc) -> Vec<Vec<&LOp>> {
        f.blocks.iter().map(|b| b.ops.iter().collect()).collect()
    }

    fn scheduled_blocks(s: &ScheduledFunc) -> Vec<Vec<&LOp>> {
        s.blocks
            .iter()
            .map(|b| b.iter().flat_map(|bu| bu.slots.iter().flatten()).collect())
            .collect()
    }

    #[test]
    fn dense_solver_equals_reference_on_every_kernel_and_preset() {
        let opts = crate::BackendOptions::default();
        for w in asip_workloads::all() {
            let mut module = asip_tinyc::compile(&w.source).unwrap();
            asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
            let mut interp = asip_ir::interp::Interp::new(&module, Default::default());
            for (name, data) in &w.inputs {
                interp.write_global(name, data);
            }
            let profile = interp.run("main", &w.args).unwrap().profile;
            for m in MachineDescription::all_presets() {
                let m = match m.target {
                    asip_isa::TargetKind::Vliw => m,
                    asip_isa::TargetKind::Scalar => crate::scalar::width1_view(&m),
                };
                let mut lm = crate::lir::lower_module(&module, &m, "main").unwrap();
                for (fi, f) in lm.funcs.iter_mut().enumerate() {
                    let counts: Vec<u64> = (0..f.blocks.len())
                        .map(|b| {
                            profile.count(asip_ir::FuncId(fi as u32), asip_ir::BlockId(b as u32))
                        })
                        .collect();
                    crate::trace::form_superblocks(f, &counts, &opts.trace);
                    let homes = crate::cluster::assign_clusters(f, &m);
                    let what = format!("{}@{} {}", w.name, m.name, f.name);
                    assert_matches(f.num_vregs, &lir_blocks(f), &format!("{what} LIR"));
                    let s = crate::sched::schedule_function(f, &m, &homes).unwrap();
                    assert_matches(f.num_vregs, &scheduled_blocks(&s), &format!("{what} sched"));
                }
            }
        }
    }

    #[test]
    fn self_loop_and_retv_match_reference() {
        // b0: v0 = 1; br b1
        // b1: v1 = v0 + v2; v2 = v1; brt v1 -> b1; br b2   (self-loop)
        // b2: call; v3 = RETV; emit v3; RETV = v3; br b3
        // b3: ret                                           (reads RETV)
        let reg = LVal::Reg;
        let br = |t: u32, op: Opcode, srcs: Vec<LVal>| {
            let mut o = LOp::new(op, vec![], srcs);
            o.target = LTarget::Block(t);
            o
        };
        let b0 = vec![
            LOp::new(Opcode::Mov, vec![VReg(0)], vec![LVal::Imm(1)]),
            br(1, Opcode::Br, vec![]),
        ];
        let b1 = vec![
            LOp::new(Opcode::Add, vec![VReg(1)], vec![reg(VReg(0)), reg(VReg(2))]),
            LOp::new(Opcode::Mov, vec![VReg(2)], vec![reg(VReg(1))]),
            br(1, Opcode::BrT, vec![reg(VReg(1))]),
            br(2, Opcode::Br, vec![]),
        ];
        let b2 = vec![
            LOp::new(Opcode::Call, vec![], vec![]),
            LOp::new(Opcode::Mov, vec![VReg(3)], vec![reg(RETV)]),
            LOp::new(Opcode::Emit, vec![], vec![reg(VReg(3))]),
            LOp::new(Opcode::Mov, vec![RETV], vec![reg(VReg(3))]),
            br(3, Opcode::Br, vec![]),
        ];
        let b3 = vec![LOp::new(Opcode::Ret, vec![], vec![])];
        let blocks: Vec<LBlock> = [b0, b1, b2, b3]
            .into_iter()
            .map(|ops| LBlock { ops })
            .collect();
        let refs: Vec<Vec<&LOp>> = blocks.iter().map(|b| b.ops.iter().collect()).collect();
        assert_matches(4, &refs, "hand-built");
        let live = Liveness::solve(4, refs.iter().map(|b| b.iter().copied()));
        // v2 is live around the self-loop, and into it from b0.
        assert!(live.live_in[1].contains(2) && live.live_out[1].contains(2));
        assert!(live.live_in[0].contains(2));
        // RETV: defined by the call before b2 reads it, live from b2 into b3.
        let retv = dense(RETV, 4);
        assert_eq!(retv, 4);
        assert!(!live.live_in[2].contains(retv));
        assert!(live.live_out[2].contains(retv) && live.live_in[3].contains(retv));
    }
}
