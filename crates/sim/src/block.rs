//! The block-compiled execution engines: translate basic blocks **once**
//! into precomputed superops, then execute a threaded-code dispatch loop
//! over them, with one cycle-exact slow path over the pre-decoded program
//! form for everything the superops do not cover.
//!
//! Hot kernels spend nearly all cycles in a handful of basic blocks whose
//! *timing* is input-independent: within a straight-line block the
//! schedule fixes every interlock stall, every fetch line and every
//! issue-group boundary. So each block is translated on first visit
//! (keyed by its entry pc) into a **superop**:
//!
//! * block-level precomputed costs — total cycles, folded interlock
//!   stalls, aggregated activity/fetch/idle statistics — applied in O(1)
//!   at block exit instead of per bundle;
//! * the deduplicated I-cache **line set** the block fetches, probed
//!   read-only at entry ([`crate::ICache::probe`]);
//! * the **live-out** write set: registers whose results are still in
//!   flight when the block exits, re-armed on the scoreboard so timing
//!   composes exactly across blocks;
//! * residual per-bundle flags for the few shapes where same-pc ordering
//!   is observable (a bundle that reads a register it also writes, or
//!   mixes loads and stores) — those keep the engine's deferred-write
//!   semantics instead of the fast direct writes.
//!
//! A superop's static trace is valid only under its **entry assumptions**:
//! every write still in flight at block entry lands at or before the
//! block's first touch of its register (so no interlock the trace didn't
//! already fold in can fire), every fetch line resident, and the cycle
//! limit out of reach. Each assumption is checked by a cheap guard
//! at block entry; any failure — and any block the translator refuses
//! (pathological multi-line I-cache straddles) — falls back to the
//! cycle-exact slow path for **one pc at a time**, re-attempting fast
//! dispatch at the next block boundary. Correctness therefore never
//! depends on the fast path covering everything, and the differential
//! suites pin this module to the [`crate::reference`] oracle with
//! bit-identical [`SimResult`](crate::SimResult)s, fallback paths
//! included.
//!
//! Block discovery (leader analysis) is the promoted, reusable analysis
//! in [`asip_dbt::blocks`] — the same machinery family the rebundling
//! translator seeds.

pub mod scalar;
pub mod vliw;

pub use scalar::BlockScalar;
pub use vliw::BlockVliw;

use crate::exec::{CustomPools, DecodedOp, ExecKind, Src};
use asip_dbt::blocks::Ctrl;

/// Visit one decoded op's register *reads* (flat indices), including the
/// shared custom-op source pool.
pub(crate) fn for_each_read(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    let mut src = |s: &Src| {
        if let Src::Reg(r) = *s {
            f(r);
        }
    };
    match &op.kind {
        ExecKind::Bin { a, b, .. } => {
            src(a);
            src(b);
        }
        ExecKind::Un { a, .. } => src(a),
        ExecKind::Ldw { base, .. } => src(base),
        ExecKind::Stw { val, base, .. } => {
            src(val);
            src(base);
        }
        ExecKind::BrT { cond, .. } | ExecKind::BrF { cond, .. } => src(cond),
        ExecKind::Emit { src: s } | ExecKind::MovToLr { src: s } | ExecKind::Mov { src: s, .. } => {
            src(s);
        }
        ExecKind::Select { c, a, b, .. } => {
            src(c);
            src(a);
            src(b);
        }
        ExecKind::Custom { srcs, .. } => {
            for s in &pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                src(s);
            }
        }
        ExecKind::Br { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::AddSp { .. }
        | ExecKind::MovFromSp { .. }
        | ExecKind::MovFromLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Visit one decoded op's register *writes* (flat indices, the hardwired
/// zero register included — callers filter), including the shared
/// custom-op destination pool.
pub(crate) fn for_each_write(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    match &op.kind {
        ExecKind::Bin { dst, .. }
        | ExecKind::Un { dst, .. }
        | ExecKind::Ldw { dst, .. }
        | ExecKind::MovFromSp { dst }
        | ExecKind::MovFromLr { dst }
        | ExecKind::Mov { dst, .. }
        | ExecKind::Select { dst, .. } => f(*dst),
        ExecKind::Custom { dsts, .. } => {
            for &d in &pools.dsts[dsts.0 as usize..dsts.1 as usize] {
                f(d);
            }
        }
        ExecKind::Stw { .. }
        | ExecKind::Br { .. }
        | ExecKind::BrT { .. }
        | ExecKind::BrF { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::Emit { .. }
        | ExecKind::AddSp { .. }
        | ExecKind::MovToLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Control-flow summary of one pc's decoded ops for block discovery. The
/// first control op found terminates the pc; should a pc ever carry more
/// than one (no validated program does), the extra static targets are
/// appended to `extra_leaders` so the partition still splits at every
/// possible transfer destination.
pub(crate) fn ctrl_of(ops: &[DecodedOp], extra_leaders: &mut Vec<u32>) -> Ctrl {
    let mut ctrl = Ctrl::FallThrough;
    for op in ops {
        let c = match op.kind {
            ExecKind::Br { target } => Ctrl::Jump(target),
            ExecKind::BrT { target, .. } | ExecKind::BrF { target, .. } => Ctrl::CondJump(target),
            ExecKind::Call { entry } => Ctrl::Call(entry),
            ExecKind::Ret => Ctrl::Ret,
            ExecKind::Halt => Ctrl::Halt,
            _ => continue,
        };
        if ctrl == Ctrl::FallThrough {
            ctrl = c;
        } else if let Ctrl::Jump(t) | Ctrl::CondJump(t) | Ctrl::Call(t) = c {
            extra_leaders.push(t);
        }
    }
    ctrl
}
