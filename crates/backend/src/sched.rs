//! Dependence-DAG construction and latency-aware list scheduling.
//!
//! Scheduling is per superblock. Pure operations may be hoisted above
//! earlier conditional exits (speculation) when their results are not live
//! on the exit path; memory operations, calls, emits and potential traps
//! keep their order with respect to branches. Correctness never depends on
//! latency bookkeeping: the simulator interlocks on not-ready registers, so
//! a conservative schedule is merely slower, never wrong.

use crate::cluster::Homes;
use crate::lir::{LFunc, LOp, LTarget, MemKey, RETV};
use crate::liveness::{dense, Liveness, VRegSet};
use asip_ir::inst::VReg;
use asip_isa::{FuKind, MachineDescription, Opcode};
use std::fmt;

/// One scheduled VLIW instruction: `issue_width` slots of LIR ops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LBundle {
    /// Slot contents (global slot index = cluster × slots_per_cluster + s).
    pub slots: Vec<Option<LOp>>,
}

/// A scheduled function: bundles per block, same block ids as the LIR.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFunc {
    /// Per-block bundle sequences.
    pub blocks: Vec<Vec<LBundle>>,
}

impl ScheduledFunc {
    /// Total bundles across all blocks.
    pub fn num_bundles(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Total occupied slots.
    pub fn num_ops(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|bu| bu.slots.iter().filter(|s| s.is_some()).count())
            .sum()
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No slot on the op's home cluster hosts the required unit kind.
    NoSlotFor {
        /// Mnemonic of the unplaceable op.
        opcode: String,
        /// Home cluster that lacks a slot.
        cluster: u8,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoSlotFor { opcode, cluster } => {
                write!(f, "no issue slot on cluster {cluster} can host {opcode}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Reads including implicit ones (Ret reads the return-value register).
pub fn effective_reads(op: &LOp) -> impl Iterator<Item = VReg> + '_ {
    let implicit = (op.opcode == Opcode::Ret).then_some(RETV);
    op.srcs.iter().filter_map(|s| s.reg()).chain(implicit)
}

/// Defs including implicit ones (Call writes the return-value register).
pub fn effective_defs(op: &LOp) -> impl Iterator<Item = VReg> + '_ {
    let implicit = (op.opcode == Opcode::Call).then_some(RETV);
    op.dsts.iter().copied().chain(implicit)
}

/// Schedule every block of a function.
///
/// # Errors
///
/// [`ScheduleError`] when an operation cannot be placed on any slot of its
/// home cluster.
pub fn schedule_function(
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
) -> Result<ScheduledFunc, ScheduleError> {
    let live = Liveness::solve(f.num_vregs, f.blocks.iter().map(|b| &b.ops));
    let mut scratch = Scratch::new(f.num_vregs);
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        blocks.push(scratch.schedule_block(&b.ops, machine, homes, &live.live_in, f.vfp)?);
    }
    Ok(ScheduledFunc { blocks })
}

/// Degraded-mode scheduling: one operation per bundle, strict program
/// order. Used as a register-pressure fallback — reloads sit directly
/// before their uses, so spill-temporary lifetimes are minimal and
/// allocation succeeds on any register file large enough for the source
/// expressions themselves.
///
/// # Errors
///
/// [`ScheduleError`] when an operation has no compatible slot at all.
pub fn schedule_function_sequential(
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
) -> Result<ScheduledFunc, ScheduleError> {
    let spc = machine.slots_per_cluster();
    let width = machine.issue_width();
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        let mut bundles = Vec::with_capacity(b.ops.len());
        for op in &b.ops {
            let cluster = op_cluster(op, homes) as usize;
            let kind = op.opcode.fu_kind();
            let slot = (0..spc)
                .find(|&s| machine.slots[s].hosts(kind))
                .ok_or_else(|| ScheduleError::NoSlotFor {
                    opcode: op.opcode.to_string(),
                    cluster: cluster as u8,
                })?;
            let mut bundle = LBundle {
                slots: vec![None; width],
            };
            bundle.slots[cluster * spc + slot] = Some(op.clone());
            bundles.push(bundle);
        }
        blocks.push(bundles);
    }
    Ok(ScheduledFunc { blocks })
}

/// No op / no link.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Edge {
    to: u32,
    lat: u32,
}

/// The block scheduler's buffers, reused across the blocks of one
/// function. Register state is indexed by [`dense`] vreg and reset to
/// [`NONE`] after each block; the rest is indexed by op.
#[derive(Default)]
struct Scratch {
    num_vregs: u32,
    /// Per register: the op of this block that last defined it.
    last_def: Vec<u32>,
    /// Per register: head of its list of reads since that def.
    reads_head: Vec<u32>,
    /// Read-list links: (reading op, next link).
    read_links: Vec<(u32, u32)>,
    /// Memory ops so far: (op, alias key, is a store).
    mem: Vec<(usize, MemKey, bool)>,
    branches: Vec<usize>,
    succs: Vec<Vec<Edge>>,
    indeg: Vec<u32>,
    height: Vec<u32>,
    earliest: Vec<u32>,
    scheduled: Vec<bool>,
    ready: Vec<usize>,
    cands: Vec<usize>,
    /// The bundle being filled: op index per global slot.
    slot_op: Vec<Option<usize>>,
}

impl Scratch {
    fn new(num_vregs: u32) -> Scratch {
        let universe = num_vregs as usize + 1;
        Scratch {
            num_vregs,
            last_def: vec![NONE; universe],
            reads_head: vec![NONE; universe],
            ..Scratch::default()
        }
    }

    fn schedule_block(
        &mut self,
        ops: &[LOp],
        machine: &MachineDescription,
        homes: &Homes,
        live_in: &[VRegSet],
        vfp: VReg,
    ) -> Result<Vec<LBundle>, ScheduleError> {
        let n = ops.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Every op must have a compatible slot on its home cluster.
        for op in ops {
            let kind = op.opcode.fu_kind();
            if !machine.slots.iter().any(|s| s.hosts(kind)) {
                return Err(ScheduleError::NoSlotFor {
                    opcode: op.opcode.to_string(),
                    cluster: op_cluster(op, homes),
                });
            }
        }
        if self.succs.len() < n {
            self.succs.resize_with(n, Vec::new);
        }
        self.succs[..n].iter_mut().for_each(Vec::clear);
        for v in [&mut self.indeg, &mut self.height, &mut self.earliest] {
            v.clear();
            v.resize(n, 0);
        }
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.build_dag(ops, machine, live_in, vfp);
        Ok(self.list_schedule(ops, machine, homes))
    }

    /// Dependence DAG of one block into `succs`/`indeg`, then
    /// critical-path heights.
    fn build_dag(
        &mut self,
        ops: &[LOp],
        machine: &MachineDescription,
        live_in: &[VRegSet],
        vfp: VReg,
    ) {
        let Scratch {
            num_vregs,
            last_def,
            reads_head,
            read_links,
            mem,
            branches,
            succs,
            indeg,
            height,
            ..
        } = self;
        let (nv, n) = (*num_vregs, ops.len());
        let mut add_edge = |from: usize, to: usize, lat: u32| {
            debug_assert!(from < to);
            succs[from].push(Edge { to: to as u32, lat });
            indeg[to] += 1;
        };
        read_links.clear();
        mem.clear();
        branches.clear();
        let mut last_serial: Option<usize> = None;
        let mut last_obs: Option<usize> = None; // Emit/Call observable order
        let mut last_call: Option<usize> = None;

        for (j, op) in ops.iter().enumerate() {
            // Register dependences.
            for r in effective_reads(op).map(|r| dense(r, nv)) {
                let d = last_def[r];
                if d != NONE {
                    add_edge(d as usize, j, machine.latency(ops[d as usize].opcode));
                }
                read_links.push((j as u32, reads_head[r]));
                reads_head[r] = (read_links.len() - 1) as u32;
            }
            // A call also clobbers the frame pointer's physical home (the
            // caller rematerializes it from SP right after the call).
            let clobber = (op.opcode == Opcode::Call).then_some(vfp);
            for d in effective_defs(op).chain(clobber).map(|d| dense(d, nv)) {
                if last_def[d] != NONE {
                    add_edge(last_def[d] as usize, j, 1); // WAW
                }
                let mut link = reads_head[d];
                while link != NONE {
                    let (u, next) = read_links[link as usize];
                    if u as usize != j {
                        add_edge(u as usize, j, 0); // WAR
                    }
                    link = next;
                }
                last_def[d] = j as u32;
                reads_head[d] = NONE;
            }
            // Memory order.
            if op.is_mem() {
                let key = op.mem_key(vfp).expect("mem op");
                let is_store = op.opcode == Opcode::Stw;
                for &(i, ikey, i_store) in mem.iter() {
                    if (is_store || i_store) && key.may_alias(ikey) {
                        add_edge(i, j, u32::from(i_store)); // store→X waits a cycle
                    }
                }
                if let Some(c) = last_call {
                    add_edge(c, j, 1);
                }
                mem.push((j, key, is_store));
            }
            // Serial chain (SP/LR/control-adjacent ops).
            if op.is_serial() {
                if let Some(s) = last_serial {
                    add_edge(s, j, 1);
                }
                last_serial = Some(j);
            }
            // Observable order: emits and calls.
            if matches!(op.opcode, Opcode::Emit | Opcode::Call) {
                if let Some(o) = last_obs {
                    add_edge(o, j, 1);
                }
                last_obs = Some(j);
            }
            if op.opcode == Opcode::Call {
                // Calls are memory barriers.
                for &(i, ..) in mem.iter() {
                    add_edge(i, j, 1);
                }
                last_call = Some(j);
            }
            // Control-op chain.
            if op.opcode.is_control() {
                if let Some(&b) = branches.last() {
                    add_edge(b, j, 1);
                }
                branches.push(j);
            }
        }
        for r in ops
            .iter()
            .flat_map(|op| effective_reads(op).chain(effective_defs(op)))
        {
            last_def[dense(r, nv)] = NONE;
            reads_head[dense(r, nv)] = NONE;
        }
        last_def[dense(vfp, nv)] = NONE;
        reads_head[dense(vfp, nv)] = NONE;

        // Branch/speculation constraints.
        for &bj in branches.iter() {
            let bop = &ops[bj];
            let exit_live = match bop.target {
                LTarget::Block(t) if bop.is_branch() => live_in.get(t as usize),
                _ => None,
            };
            // Side-effecting or trap-capable ops, and ops whose defs are
            // live on the exit path, keep their side of the branch.
            let pinned = |op: &LOp| {
                !op.opcode.is_control()
                    && (!op.opcode.is_speculable()
                        || match exit_live {
                            Some(l) => effective_defs(op).any(|d| l.contains(dense(d, nv))),
                            None => effective_defs(op).next().is_some(),
                        })
            };
            for (i, oi) in ops[..bj].iter().enumerate() {
                if pinned(oi) {
                    add_edge(i, bj, 0);
                }
            }
            for (k, ok) in ops.iter().enumerate().skip(bj + 1) {
                if pinned(ok) {
                    add_edge(bj, k, 1);
                }
            }
        }
        // Everything must be placed no later than the final control op.
        if branches.last() == Some(&(n - 1)) {
            for i in 0..n - 1 {
                add_edge(i, n - 1, 0);
            }
        }

        // Priorities: critical-path height.
        for i in (0..n).rev() {
            let lat = machine.latency(ops[i].opcode);
            height[i] = succs[i]
                .iter()
                .fold(lat, |h, e| h.max(e.lat + height[e.to as usize]));
        }
    }

    /// Cycle-by-cycle list scheduling of the DAG: each cycle, ready ops
    /// in priority order take the free compatible slot with the fewest
    /// capabilities, at most one control op per bundle. Cycles where
    /// nothing issues emit no bundle (the simulator interlocks).
    fn list_schedule(
        &mut self,
        ops: &[LOp],
        machine: &MachineDescription,
        homes: &Homes,
    ) -> Vec<LBundle> {
        let Scratch {
            succs,
            indeg,
            height,
            earliest,
            scheduled,
            ready,
            cands,
            slot_op,
            ..
        } = self;
        let n = ops.len();
        let spc = machine.slots_per_cluster();
        ready.clear();
        ready.extend((0..n).filter(|&i| indeg[i] == 0));
        slot_op.clear();
        slot_op.resize(machine.issue_width(), None);
        let mut bundles = Vec::new();
        let mut remaining = n;
        let mut cycle = 0u32;
        while remaining > 0 {
            cands.clear();
            cands.extend(ready.iter().copied().filter(|&i| earliest[i] <= cycle));
            cands.sort_unstable_by_key(|&i| (std::cmp::Reverse(height[i]), i));
            slot_op.fill(None);
            let mut control_used = false;
            let mut placed = false;
            for &i in cands.iter() {
                let op = &ops[i];
                let control = op.opcode.is_control();
                if control && control_used {
                    continue;
                }
                let base = op_cluster(op, homes) as usize * spc;
                let kind = op.opcode.fu_kind();
                let mut best: Option<usize> = None;
                for s in 0..spc {
                    let slot = &machine.slots[s];
                    if slot_op[base + s].is_none()
                        && slot.hosts(kind)
                        && best.is_none_or(|b| slot.kinds().len() < machine.slots[b].kinds().len())
                    {
                        best = Some(s);
                    }
                }
                let Some(s) = best else { continue };
                slot_op[base + s] = Some(i);
                scheduled[i] = true;
                control_used |= control;
                placed = true;
                remaining -= 1;
                for e in &succs[i] {
                    let to = e.to as usize;
                    earliest[to] = earliest[to].max(cycle + e.lat);
                    indeg[to] -= 1;
                    if indeg[to] == 0 {
                        ready.push(to);
                    }
                }
            }
            if placed {
                ready.retain(|&r| !scheduled[r]);
                let slots = slot_op.iter().map(|s| s.map(|i| ops[i].clone())).collect();
                bundles.push(LBundle { slots });
            }
            cycle += 1;
            // Safety valve against scheduler bugs.
            if cycle > (n as u32 + 8) * 64 {
                unreachable!("scheduler failed to converge on a block of {n} ops");
            }
        }
        bundles
    }
}

fn op_cluster(op: &LOp, homes: &Homes) -> u8 {
    if op.is_serial() || op.opcode.fu_kind() == FuKind::Branch {
        return 0;
    }
    if let Some(&d) = op.dsts.first() {
        return homes.of(d);
    }
    // Stores and other dst-less ops: use the first register operand's home.
    op.srcs
        .iter()
        .find_map(|s| s.reg())
        .map_or(0, |r| homes.of(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign_clusters;
    use crate::lir::lower_module;

    fn sched(src: &str, m: &MachineDescription) -> (LFunc, ScheduledFunc) {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, m, "main").unwrap().funcs.remove(0);
        crate::trace::form_superblocks(&mut lf, &[], &crate::trace::TraceConfig::default());
        let homes = assign_clusters(&mut lf, m);
        let s = schedule_function(&lf, m, &homes).unwrap();
        (lf, s)
    }

    #[test]
    fn all_ops_scheduled_exactly_once() {
        let m = MachineDescription::ember4();
        let (lf, s) = sched("void main(int a, int b) { emit(a * b + a - b); }", &m);
        let lir_ops: usize = lf.blocks.iter().map(|b| b.ops.len()).sum();
        assert_eq!(s.num_ops(), lir_ops);
    }

    #[test]
    fn wider_machine_schedules_no_longer() {
        let src = r#"
            void main(int a, int b, int c, int d) {
                emit((a + b) + (c + d) + (a - b) + (c - d));
            }
        "#;
        let m1 = MachineDescription::ember1();
        let m4 = MachineDescription::ember4();
        let (_, s1) = sched(src, &m1);
        let (_, s4) = sched(src, &m4);
        assert!(
            s4.num_bundles() <= s1.num_bundles(),
            "4-wide ({}) must not be slower than 1-wide ({})",
            s4.num_bundles(),
            s1.num_bundles()
        );
        assert!(
            s4.num_bundles() < s1.num_bundles(),
            "independent adds must pack"
        );
    }

    #[test]
    fn bundle_width_matches_machine() {
        let m = MachineDescription::ember4();
        let (_, s) = sched("void main() { emit(1); }", &m);
        for b in s.blocks.iter().flatten() {
            assert_eq!(b.slots.len(), 4);
        }
    }

    #[test]
    fn at_most_one_control_per_bundle() {
        let m = MachineDescription::ember8();
        let (_, s) = sched(
            "void main(int n) { int i = 0; while (i < n) { if (i % 3) emit(i); i++; } }",
            &m,
        );
        for b in s.blocks.iter().flatten() {
            let controls = b
                .slots
                .iter()
                .flatten()
                .filter(|o| o.opcode.is_control())
                .count();
            assert!(controls <= 1, "bundle has {controls} control ops");
        }
    }

    #[test]
    fn slots_host_only_compatible_ops() {
        let m = MachineDescription::ember4();
        let (_, s) = sched(
            "int t[8]; void main(int n) { int i = 0; while (i < 8) { t[i] = i * n; i++; } emit(t[3]); }",
            &m,
        );
        let spc = m.slots_per_cluster();
        for b in s.blocks.iter().flatten() {
            for (g, op) in b.slots.iter().enumerate() {
                if let Some(op) = op {
                    assert!(
                        m.slots[g % spc].hosts(op.opcode.fu_kind()),
                        "slot {g} cannot host {}",
                        op.opcode
                    );
                }
            }
        }
    }

    #[test]
    fn stores_do_not_move_above_side_exits() {
        // A store after a conditional exit must stay after it: in every
        // block, no Stw sits in a bundle before the bundle of a conditional
        // branch that precedes it in LIR order.
        let m = MachineDescription::ember4();
        let (lf, s) = sched(
            r#"
            int g;
            void main(int n) {
                int i = 0;
                while (i < n) { g = i; i++; }
                emit(g);
            }
            "#,
            &m,
        );
        let mut checked = 0;
        for (block, bundles) in lf.blocks.iter().zip(&s.blocks) {
            // Bundle of each LIR op, matching scheduled copies to the
            // earliest unmatched equal op.
            let mut bundle_of: Vec<Option<usize>> = vec![None; block.ops.len()];
            for (k, bu) in bundles.iter().enumerate() {
                for op in bu.slots.iter().flatten() {
                    let j = (0..block.ops.len())
                        .find(|&j| bundle_of[j].is_none() && block.ops[j] == *op)
                        .expect("scheduled op comes from this block");
                    bundle_of[j] = Some(k);
                }
            }
            for (bi, br) in block.ops.iter().enumerate() {
                if !matches!(br.opcode, Opcode::BrT | Opcode::BrF) {
                    continue;
                }
                for (si, st) in block.ops.iter().enumerate().skip(bi + 1) {
                    if st.opcode == Opcode::Stw {
                        assert!(
                            bundle_of[si] >= bundle_of[bi],
                            "store {st} hoisted above side exit {br}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "no store follows a side exit in this program");
    }
}
