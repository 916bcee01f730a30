//! Basic-block discovery over a linear instruction stream — the
//! control-flow analysis behind block-compiled execution.
//!
//! The rebundling translator ([`crate::translate`]) carries the
//! intra-bundle half of this machinery; this module promotes the
//! *inter*-instruction half into a reusable analysis: partition a
//! program's pcs into maximal straight-line **basic blocks** — the units a
//! block-compiling simulator translates once and executes many times.
//!
//! The input is deliberately minimal: one [`Ctrl`] summary per pc plus the
//! set of entry points. Both the VLIW engine (one `Ctrl` per bundle) and
//! the scalar engine (one per instruction) lower to it, so the analysis is
//! shared rather than duplicated per target kind.
//!
//! # Example
//!
//! ```
//! use asip_dbt::blocks::{discover, Ctrl};
//!
//! // 0: i = 0            (entry)
//! // 1: loop: body…
//! // 2: i < n ?  -> 1    (conditional back edge)
//! // 3: halt
//! let ctrl = [
//!     Ctrl::FallThrough,
//!     Ctrl::FallThrough,
//!     Ctrl::CondJump(1),
//!     Ctrl::Halt,
//! ];
//! let map = discover(&ctrl, &[0]);
//! // Three blocks: [0,1) prologue, [1,3) loop body, [3,4) epilogue.
//! assert_eq!(map.blocks.len(), 3);
//! assert_eq!(map.block_at(1).range, (1, 3));
//! assert_eq!(map.block_at(2).start(), 1, "pc 2 lies inside the body");
//! ```

/// Control-flow summary of one pc (bundle or instruction): how execution
/// can leave it, with all targets already resolved to pc indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctrl {
    /// Execution always continues at `pc + 1`.
    FallThrough,
    /// Unconditional jump to `.0`.
    Jump(u32),
    /// Conditional jump: either `.0` or fall-through to `pc + 1`.
    CondJump(u32),
    /// Call to the resolved entry `.0`; the return lands at `pc + 1`.
    Call(u32),
    /// Return through the link register (dynamic target).
    Ret,
    /// The machine stops here.
    Halt,
}

impl Ctrl {
    /// Whether this pc ends a basic block (any non-fall-through control).
    pub fn ends_block(self) -> bool {
        !matches!(self, Ctrl::FallThrough)
    }
}

/// One maximal straight-line block: pcs `range.0 .. range.1`, only the
/// first of which can be a control-transfer target, and only the last of
/// which can transfer control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Half-open pc range `[start, end)`.
    pub range: (u32, u32),
}

impl BasicBlock {
    /// First pc of the block.
    pub fn start(&self) -> u32 {
        self.range.0
    }

    /// One past the last pc of the block.
    pub fn end(&self) -> u32 {
        self.range.1
    }

    /// Number of pcs in the block.
    pub fn len(&self) -> u32 {
        self.range.1 - self.range.0
    }

    /// Whether the block is empty (never produced by [`discover`]).
    pub fn is_empty(&self) -> bool {
        self.range.1 == self.range.0
    }
}

/// The block partition of a program: every pc belongs to exactly one
/// block, and `block_of[pc]` finds it in O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    /// Blocks in ascending pc order; contiguous (block `i` ends where
    /// block `i + 1` starts) and covering every pc.
    pub blocks: Vec<BasicBlock>,
    /// Map from pc to the index (into [`BlockMap::blocks`]) of the block
    /// containing it.
    pub block_of: Vec<u32>,
}

impl BlockMap {
    /// The block containing `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn block_at(&self, pc: u32) -> &BasicBlock {
        &self.blocks[self.block_of[pc as usize] as usize]
    }
}

/// Partition `ctrl` (one summary per pc) into basic blocks.
///
/// **Leaders** — pcs that start a block — are: every entry point, every
/// static jump/call target, and every pc following a block-ending pc
/// (branch fall-through paths and call return sites). Dynamic `Ret`
/// targets need no special casing: a return lands just after a `Call`,
/// which is a leader by the fall-through rule. (Consumers that allow
/// *computed* link registers must still handle a transfer into the middle
/// of a block — see the block engine's mid-block slow path.)
///
/// Returns an empty map for an empty program.
///
/// # Panics
///
/// Panics if any target or entry pc is out of range.
pub fn discover(ctrl: &[Ctrl], entries: &[u32]) -> BlockMap {
    let n = ctrl.len();
    if n == 0 {
        return BlockMap {
            blocks: Vec::new(),
            block_of: Vec::new(),
        };
    }
    // 1. Leaders.
    let mut leader = vec![false; n];
    leader[0] = true; // pc 0 starts *some* block even if unreachable
    for &e in entries {
        leader[e as usize] = true;
    }
    for (pc, c) in ctrl.iter().enumerate() {
        match *c {
            Ctrl::Jump(t) | Ctrl::CondJump(t) | Ctrl::Call(t) => leader[t as usize] = true,
            Ctrl::FallThrough | Ctrl::Ret | Ctrl::Halt => {}
        }
        if c.ends_block() && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }

    // 2. Blocks and the pc → block map.
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut block_of = vec![0u32; n];
    let mut start = 0usize;
    for pc in 0..n {
        if pc > start && leader[pc] {
            blocks.push(BasicBlock {
                range: (start as u32, pc as u32),
            });
            start = pc;
        }
        block_of[pc] = blocks.len() as u32;
        if ctrl[pc].ends_block() {
            blocks.push(BasicBlock {
                range: (start as u32, pc as u32 + 1),
            });
            start = pc + 1;
        }
    }
    if start < n {
        blocks.push(BasicBlock {
            range: (start as u32, n as u32),
        });
    }

    BlockMap { blocks, block_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_one_block() {
        let ctrl = [Ctrl::FallThrough, Ctrl::FallThrough, Ctrl::Halt];
        let map = discover(&ctrl, &[0]);
        assert_eq!(map.blocks.len(), 1);
        assert_eq!(map.blocks[0].range, (0, 3));
        assert_eq!(map.block_of, vec![0, 0, 0]);
    }

    #[test]
    fn branch_targets_and_fallthroughs_are_leaders() {
        // 0: cond -> 3 | 1
        // 1: fallthrough
        // 2: jump -> 4
        // 3: fallthrough      (target leader)
        // 4: halt             (jump target + fall-through leader)
        let ctrl = [
            Ctrl::CondJump(3),
            Ctrl::FallThrough,
            Ctrl::Jump(4),
            Ctrl::FallThrough,
            Ctrl::Halt,
        ];
        let map = discover(&ctrl, &[0]);
        let ranges: Vec<_> = map.blocks.iter().map(|b| b.range).collect();
        assert_eq!(ranges, vec![(0, 1), (1, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn call_split_and_return_site() {
        // 0: call -> 3
        // 1: halt            (return site — leader by fall-through rule)
        // 2: (unreachable pad)
        // 3: callee body
        // 4: ret
        let ctrl = [
            Ctrl::Call(3),
            Ctrl::Halt,
            Ctrl::FallThrough,
            Ctrl::FallThrough,
            Ctrl::Ret,
        ];
        let map = discover(&ctrl, &[0, 3]);
        assert_eq!(map.block_at(1).range.0, 1, "return site starts a block");
        assert_eq!(map.block_at(3).range, (3, 5));
    }

    #[test]
    fn back_edge_target_starts_the_loop_body() {
        // 0: jump -> 0   (self loop): one block.
        let map = discover(&[Ctrl::Jump(0)], &[0]);
        assert_eq!(map.blocks.len(), 1);

        // 0: prologue; 1..3 body; 2: cond -> 1; 3: halt
        let ctrl = [
            Ctrl::FallThrough,
            Ctrl::FallThrough,
            Ctrl::CondJump(1),
            Ctrl::Halt,
        ];
        let map = discover(&ctrl, &[0]);
        let ranges: Vec<_> = map.blocks.iter().map(|b| b.range).collect();
        assert_eq!(ranges, vec![(0, 1), (1, 3), (3, 4)]);
    }

    /// A region with two distinct entry edges (irreducible control flow)
    /// still partitions at every entry: each transfer target is a leader.
    #[test]
    fn two_entry_region_splits_at_each_entry() {
        // 0: cond -> 4 | 1      (dispatch: enter the region at A or B)
        // 1: fallthrough        } A
        // 2: cond -> 4 | 3      } A: edge into B
        // 3: halt               (exit)
        // 4: fallthrough        } B
        // 5: cond -> 1 | 6      } B: edge back into A
        // 6: halt
        let ctrl = [
            Ctrl::CondJump(4),
            Ctrl::FallThrough,
            Ctrl::CondJump(4),
            Ctrl::Halt,
            Ctrl::FallThrough,
            Ctrl::CondJump(1),
            Ctrl::Halt,
        ];
        let map = discover(&ctrl, &[0]);
        let ranges: Vec<_> = map.blocks.iter().map(|b| b.range).collect();
        assert_eq!(ranges, vec![(0, 1), (1, 3), (3, 4), (4, 6), (6, 7)]);
        assert_eq!(map.block_of, vec![0, 1, 1, 2, 3, 3, 4]);
    }

    #[test]
    fn empty_program_yields_empty_map() {
        let map = discover(&[], &[]);
        assert!(map.blocks.is_empty());
        assert!(map.block_of.is_empty());
    }
}
