//! Linear-scan register allocation over scheduled code, with
//! spill-and-reschedule iteration.
//!
//! Intervals are computed over bundle positions of the scheduled function
//! (liveness-extended across blocks). On overflow the furthest-ending
//! interval is spilled: the *unscheduled* LIR is rewritten with reload/store
//! ops around every use/def, and the caller reschedules and retries. VLIW
//! read-before-write bundle semantics allow an interval ending in a use at
//! position `p` to share a register with one starting at `p`.

use crate::cluster::Homes;
use crate::lir::{FrameRef, LFunc, LImm, LOp, LVal, RETV};
use crate::liveness::{dense, Liveness};
use crate::sched::{effective_defs, effective_reads, ScheduledFunc};
use asip_ir::inst::VReg;
use asip_isa::{MachineDescription, Opcode, Reg};
use std::collections::BTreeSet;
use std::fmt;

/// Result of one allocation attempt.
#[derive(Debug)]
pub enum AllocOutcome {
    /// Every interval got a register.
    Assigned(Assignment),
    /// These virtual registers must be spilled; rewrite and retry.
    Spill(Vec<VReg>),
}

/// A complete register assignment, indexed by virtual register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    regs: Vec<Option<Reg>>,
}

impl Assignment {
    /// The physical register assigned to `v`, if it has one.
    pub fn get(&self, v: VReg) -> Option<Reg> {
        self.regs.get(v.0 as usize).copied().flatten()
    }
}

/// Allocation failure after all retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The register file is too small even after spilling everything
    /// spillable.
    TooFewRegisters {
        /// Cluster that overflowed.
        cluster: u8,
        /// Registers available there.
        available: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TooFewRegisters { cluster, available } => write!(
                f,
                "register file too small: cluster {cluster} has only {available} allocatable registers"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug, Clone)]
struct Interval {
    vreg: VReg,
    cluster: u8,
    start: u32,
    /// Exclusive end: last-use position, or def position + 1 for dead defs
    /// (so a dead def still blocks the register for its own bundle).
    end: u32,
    spillable: bool,
}

/// Positions (in the interval numbering) of every `Call` bundle.
fn call_positions(s: &ScheduledFunc) -> Vec<u32> {
    let mut pos = 0u32;
    let mut out = Vec::new();
    for block in &s.blocks {
        for bu in block {
            if bu
                .slots
                .iter()
                .flatten()
                .any(|op| op.opcode == Opcode::Call)
            {
                out.push(pos);
            }
            pos += 1;
        }
        pos += 1; // separator, mirrors build_intervals
    }
    out
}

/// Build live intervals over bundle positions.
fn build_intervals(
    s: &ScheduledFunc,
    f: &LFunc,
    homes: &Homes,
    spill_temps: &BTreeSet<VReg>,
) -> Vec<Interval> {
    let nv = f.num_vregs;
    let ops = s
        .blocks
        .iter()
        .map(|b| b.iter().flat_map(|bu| bu.slots.iter().flatten()));
    let live = Liveness::solve(nv, ops);

    /// First position touched, last read, last def (`u32::MAX`/`None`
    /// when never).
    #[derive(Clone, Copy)]
    struct Acc {
        min: u32,
        max_use: Option<u32>,
        max_def: Option<u32>,
    }
    let untouched = Acc {
        min: u32::MAX,
        max_use: None,
        max_def: None,
    };
    let mut acc = vec![untouched; nv as usize + 1];
    let mut bstart = 0u32;
    for (i, block) in s.blocks.iter().enumerate() {
        let bend = bstart + block.len() as u32;
        for r in live.live_in[i].iter() {
            acc[r].min = acc[r].min.min(bstart);
        }
        // Live out: extend to block end.
        for r in live.live_out[i].iter() {
            acc[r].min = acc[r].min.min(bstart);
            acc[r].max_use = acc[r].max_use.max(Some(bend));
        }
        for (p, bu) in (bstart..).zip(block) {
            for op in bu.slots.iter().flatten() {
                for r in effective_reads(op).map(|r| dense(r, nv)) {
                    acc[r].min = acc[r].min.min(p);
                    acc[r].max_use = acc[r].max_use.max(Some(p));
                }
                for d in effective_defs(op).map(|d| dense(d, nv)) {
                    acc[d].min = acc[d].min.min(p);
                    acc[d].max_def = acc[d].max_def.max(Some(p));
                }
            }
        }
        bstart = bend + 1; // separator keeps blocks disjoint
    }

    // The last index is RETV, a pinned physical register.
    let mut out: Vec<Interval> = (0u32..nv)
        .zip(acc)
        .filter(|(_, a)| a.min != u32::MAX)
        .map(|(v, a)| {
            let (vreg, start) = (VReg(v), a.min);
            let end = match (a.max_use, a.max_def) {
                (Some(u), Some(d)) => u.max(d + 1),
                (Some(u), None) => u,
                (None, Some(d)) => d + 1,
                (None, None) => start + 1,
            };
            Interval {
                vreg,
                cluster: homes.of(vreg),
                start,
                end,
                spillable: vreg != f.vfp && !spill_temps.contains(&vreg),
            }
        })
        .collect();
    out.sort_unstable_by_key(|iv| (iv.start, iv.vreg));
    out
}

/// One linear-scan pass.
///
/// # Errors
///
/// [`AllocError::TooFewRegisters`] when an overflow has no spillable victim.
pub fn try_allocate(
    s: &ScheduledFunc,
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
    spill_temps: &BTreeSet<VReg>,
) -> Result<AllocOutcome, AllocError> {
    let intervals = build_intervals(s, f, homes, spill_temps);

    // Caller-save discipline: no value may live in a register across a
    // call (the callee owns the whole file). Any interval spanning a call
    // is stack-homed up front. The frame pointer is exempt — it is
    // rematerialized from SP immediately after every call.
    let calls = call_positions(s);
    if !calls.is_empty() {
        let mut crossing: Vec<VReg> = intervals
            .iter()
            .filter(|iv| {
                iv.vreg != f.vfp
                    && iv.spillable
                    && calls.iter().any(|&c| iv.start < c && iv.end > c)
            })
            .map(|iv| iv.vreg)
            .collect();
        if !crossing.is_empty() {
            crossing.sort();
            crossing.dedup();
            return Ok(AllocOutcome::Spill(crossing));
        }
    }

    // Free registers per cluster; cluster 0 reserves r0 (zero) and r1 (ret).
    let mut free: Vec<Vec<u16>> = (0..machine.clusters)
        .map(|c| {
            let lo = if c == 0 { 2 } else { 0 };
            (lo..machine.regs_per_cluster).rev().collect()
        })
        .collect();
    if free.iter().any(|f| f.is_empty()) {
        return Err(AllocError::TooFewRegisters {
            cluster: 0,
            available: 0,
        });
    }

    let mut active: Vec<(u32, usize)> = Vec::new(); // (end, interval idx)
    let mut assignment: Vec<Option<u16>> = vec![None; intervals.len()];
    let mut spills: Vec<VReg> = Vec::new();

    for idx in 0..intervals.len() {
        let (start, cluster) = (intervals[idx].start, intervals[idx].cluster);
        // Expire.
        active.retain(|&(end, ai)| {
            if end <= start {
                if let Some(r) = assignment[ai] {
                    free[intervals[ai].cluster as usize].push(r);
                }
            }
            end > start
        });

        if let Some(r) = free[cluster as usize].pop() {
            assignment[idx] = Some(r);
            active.push((intervals[idx].end, idx));
        } else {
            // Spill the furthest-ending spillable interval on this cluster
            // (including, possibly, the current one).
            // Prefer the furthest-ending *long* interval (spilling a 1-2
            // bundle interval cannot relieve pressure).
            let worth = |iv: &Interval| iv.spillable && iv.end - iv.start > 2;
            let mut victim: Option<usize> = if worth(&intervals[idx]) {
                Some(idx)
            } else {
                None
            };
            let mut victim_end = if worth(&intervals[idx]) {
                intervals[idx].end
            } else {
                0
            };
            for &(end, ai) in &active {
                if intervals[ai].cluster == cluster && worth(&intervals[ai]) && end > victim_end {
                    victim = Some(ai);
                    victim_end = end;
                }
            }
            if victim.is_none() {
                // Fall back to any spillable interval at all.
                if intervals[idx].spillable {
                    victim = Some(idx);
                }
                for &(_, ai) in &active {
                    if intervals[ai].cluster == cluster && intervals[ai].spillable {
                        victim = Some(ai);
                        break;
                    }
                }
            }
            let Some(v) = victim else {
                return Err(AllocError::TooFewRegisters {
                    cluster,
                    available: free[cluster as usize].len(),
                });
            };
            spills.push(intervals[v].vreg);
            if v != idx {
                // Steal the victim's register.
                let r = assignment[v]
                    .take()
                    .expect("active interval has a register");
                active.retain(|&(_, ai)| ai != v);
                assignment[idx] = Some(r);
                active.push((intervals[idx].end, idx));
            }
            // If v == idx the current interval is simply not assigned.
        }
    }

    if !spills.is_empty() {
        spills.sort();
        spills.dedup();
        return Ok(AllocOutcome::Spill(spills));
    }
    let mut regs = vec![None; f.num_vregs as usize];
    for (iv, a) in intervals.iter().zip(assignment) {
        let index = a.expect("no spills means all assigned");
        regs[iv.vreg.0 as usize] = Some(Reg::new(iv.cluster, index));
    }
    Ok(AllocOutcome::Assigned(Assignment { regs }))
}

/// Rewrite the unscheduled LIR, homing `spilled` registers on the stack.
/// Newly created reload/store temporaries are recorded in `spill_temps`
/// (they must never themselves be spilled). The caller re-runs cluster
/// assignment and scheduling on the rewritten function.
pub fn rewrite_spills(f: &mut LFunc, spilled: &[VReg], spill_temps: &mut BTreeSet<VReg>) {
    let mut slots: Vec<Option<u32>> = vec![None; f.num_vregs as usize];
    for &v in spilled {
        slots[v.0 as usize] = Some(f.new_spill_slot());
    }
    let slot_of = |v: VReg| slots.get(v.0 as usize).copied().flatten();
    // This op's reloads: (spilled register, reload temporary).
    let mut reloads: Vec<(VReg, VReg)> = Vec::new();
    for bi in 0..f.blocks.len() {
        let ops = std::mem::take(&mut f.blocks[bi].ops);
        let mut out = Vec::with_capacity(ops.len() * 2);
        for mut op in ops {
            // Reloads for spilled sources.
            reloads.clear();
            for s in op.srcs.iter_mut() {
                if let LVal::Reg(r) = *s {
                    if let Some(slot) = slot_of(r) {
                        let t = match reloads.iter().find(|&&(v, _)| v == r) {
                            Some(&(_, t)) => t,
                            None => {
                                let t = VReg(f.num_vregs);
                                f.num_vregs += 1;
                                spill_temps.insert(t);
                                let mut ld = LOp::new(Opcode::Ldw, vec![t], vec![LVal::Reg(f.vfp)]);
                                ld.imm = LImm::Frame(FrameRef::Spill(slot));
                                ld.spill = true;
                                out.push(ld);
                                reloads.push((r, t));
                                t
                            }
                        };
                        *s = LVal::Reg(t);
                    }
                }
            }
            // Stores for spilled destinations.
            let mut post: Vec<LOp> = Vec::new();
            for d in op.dsts.iter_mut() {
                if let Some(slot) = slot_of(*d) {
                    let t = VReg(f.num_vregs);
                    f.num_vregs += 1;
                    spill_temps.insert(t);
                    let mut st =
                        LOp::new(Opcode::Stw, vec![], vec![LVal::Reg(t), LVal::Reg(f.vfp)]);
                    st.imm = LImm::Frame(FrameRef::Spill(slot));
                    st.spill = true;
                    post.push(st);
                    *d = t;
                }
            }
            out.push(op);
            out.extend(post);
        }
        f.blocks[bi].ops = out;
    }
}

/// Substitute physical registers into a scheduled function.
pub fn apply_assignment(s: &mut ScheduledFunc, map: &Assignment) {
    // Registers travel packed in a VReg (cluster << 16 | index) until
    // emission decodes them with [`packed_to_reg`].
    let packed = |v: VReg| -> VReg {
        let phys = if v == RETV {
            Reg::RETVAL
        } else {
            map.get(v).unwrap_or(Reg::ZERO)
        };
        VReg((u32::from(phys.cluster) << 16) | u32::from(phys.index))
    };
    for block in &mut s.blocks {
        for bu in block {
            for op in bu.slots.iter_mut().flatten() {
                for d in op.dsts.iter_mut() {
                    *d = packed(*d);
                }
                for sv in op.srcs.iter_mut() {
                    if let LVal::Reg(r) = *sv {
                        *sv = LVal::Reg(packed(r));
                    }
                }
            }
        }
    }
}

/// Decode the packed physical register produced by [`apply_assignment`].
pub fn packed_to_reg(v: VReg) -> Reg {
    Reg::new((v.0 >> 16) as u8, (v.0 & 0xFFFF) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign_clusters;
    use crate::lir::lower_module;
    use crate::sched::schedule_function;

    fn pipeline(src: &str, m: &MachineDescription) -> (LFunc, ScheduledFunc, Assignment) {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, m, "main").unwrap().funcs.remove(0);
        let mut spill_temps = BTreeSet::new();
        let mut sequential = false;
        for round in 0..24 {
            let homes = assign_clusters(&mut lf, m);
            let s = if sequential {
                crate::sched::schedule_function_sequential(&lf, m, &homes).unwrap()
            } else {
                schedule_function(&lf, m, &homes).unwrap()
            };
            match try_allocate(&s, &lf, m, &homes, &spill_temps) {
                Ok(AllocOutcome::Assigned(map)) => return (lf, s, map),
                Ok(AllocOutcome::Spill(vs)) => {
                    assert!(round < 23, "spilling did not converge");
                    rewrite_spills(&mut lf, &vs, &mut spill_temps);
                }
                Err(_) => {
                    assert!(!sequential, "even sequential mode failed");
                    sequential = true;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn simple_function_allocates_without_spills() {
        let m = MachineDescription::ember4();
        let (lf, _s, map) = pipeline("void main(int a, int b) { emit(a + b); }", &m);
        assert!(lf.spill_slots == 0);
        for r in (0..lf.num_vregs).filter_map(|v| map.get(VReg(v))) {
            assert!(r.cluster < m.clusters);
            assert!(r.index < m.regs_per_cluster);
            assert!(
                !(r.cluster == 0 && r.index < 2),
                "reserved register allocated: {r}"
            );
        }
    }

    #[test]
    fn no_two_live_vregs_share_a_register() {
        let m = MachineDescription::ember4();
        let src = r#"
            void main(int a, int b, int c, int d) {
                int e = a + b;
                int f = c + d;
                int g = a * c;
                int h = b * d;
                emit(e + f + g + h);
                emit(e - f);
                emit(g - h);
            }
        "#;
        let (lf, s, map) = pipeline(src, &m);
        // Re-derive intervals and check assigned registers don't collide.
        // (ember4 has a single cluster, so re-running cluster assignment on a
        // clone is a no-op and homes are all zero.)
        let ivs = build_intervals(
            &s,
            &lf,
            &assign_clusters(&mut lf.clone(), &m),
            &BTreeSet::new(),
        );
        for i in 0..ivs.len() {
            for j in (i + 1)..ivs.len() {
                let (a, b) = (&ivs[i], &ivs[j]);
                let (Some(ra), Some(rb)) = (map.get(a.vreg), map.get(b.vreg)) else {
                    continue;
                };
                if ra == rb {
                    let disjoint = a.end <= b.start || b.end <= a.start;
                    assert!(
                        disjoint,
                        "{} and {} share {} with overlapping intervals [{},{}) [{},{})",
                        a.vreg, b.vreg, ra, a.start, a.end, b.start, b.end
                    );
                }
            }
        }
    }

    #[test]
    fn small_regfile_forces_spills_and_converges() {
        let mut b = MachineDescription::builder("tiny");
        b.registers(8)
            .slot(&[
                asip_isa::FuKind::Alu,
                asip_isa::FuKind::Mem,
                asip_isa::FuKind::Branch,
            ])
            .slot(&[asip_isa::FuKind::Alu, asip_isa::FuKind::Mul]);
        let m = b.build().unwrap();
        // Lots of simultaneously-live values.
        let src = r#"
            void main(int a, int b) {
                int v0 = a + 1; int v1 = b + 2; int v2 = a * 3; int v3 = b * 4;
                int v4 = a - 5; int v5 = b - 6; int v6 = a * 7; int v7 = b * 8;
                int v8 = a + 9; int v9 = b + 10;
                emit(v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9);
                emit(v0 * v9); emit(v1 * v8); emit(v2 * v7);
            }
        "#;
        let (lf, _s, _map) = pipeline(src, &m);
        assert!(lf.spill_slots > 0, "expected spills on an 8-register file");
    }

    #[test]
    fn too_small_regfile_reports_error() {
        let mut b = MachineDescription::builder("minuscule");
        b.registers(6).slot(&[
            asip_isa::FuKind::Alu,
            asip_isa::FuKind::Mem,
            asip_isa::FuKind::Branch,
            asip_isa::FuKind::Mul,
        ]);
        let m = b.build().unwrap();
        // vfp + several spill temps still fit in 4 allocatable registers;
        // allocation should succeed eventually or error out cleanly — either
        // way, it must not loop forever.
        let mut module = asip_tinyc::compile(
            "void main(int a, int b) { emit(a * 31 + b * 17 + (a - b) * (a + b)); }",
        )
        .unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, &m, "main").unwrap().funcs.remove(0);
        let mut spill_temps = BTreeSet::new();
        let mut done = false;
        for _ in 0..12 {
            let homes = assign_clusters(&mut lf, &m);
            let s = schedule_function(&lf, &m, &homes).unwrap();
            match try_allocate(&s, &lf, &m, &homes, &spill_temps) {
                Ok(AllocOutcome::Assigned(_)) => {
                    done = true;
                    break;
                }
                Ok(AllocOutcome::Spill(vs)) => {
                    rewrite_spills(&mut lf, &vs, &mut spill_temps);
                }
                Err(AllocError::TooFewRegisters { .. }) => {
                    done = true;
                    break;
                }
            }
        }
        assert!(done, "allocation loop did not terminate");
    }

    #[test]
    fn packed_register_roundtrip() {
        let r = Reg::new(2, 13);
        let packed = VReg((u32::from(r.cluster) << 16) | u32::from(r.index));
        assert_eq!(packed_to_reg(packed), r);
    }
}
