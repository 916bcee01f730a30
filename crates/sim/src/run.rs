//! The cycle-level VLIW simulator core.
//!
//! Execution model (in order of a cycle):
//!
//! 1. **Fetch** the bundle at `pc`, charging I-cache misses.
//! 2. **Interlock**: if any operand register has an in-flight write that
//!    completes later than now, stall until it is ready (whole-machine
//!    stall, as on a scoreboarded in-order core). Schedules therefore never
//!    produce wrong values — only stall cycles.
//! 3. **Read** all operands (registers read the *committed* state:
//!    same-bundle writes are not visible — VLIW read-before-write).
//! 4. **Execute** every occupied slot; results enter the per-register
//!    ready-time scoreboard with their latency; stores and SP/LR updates
//!    apply at end of bundle; at most one control operation decides the
//!    next `pc`.
//!
//! Taken control transfers pay the machine's branch penalty.
//!
//! [`Simulator::new`] prepares the program once for the engine named by
//! [`SimOptions::engine`]: by default the block-compiled [`BlockVliw`]
//! (operands as flat register indices, latencies and fetch geometry baked
//! in, superops per basic block), or the interpretive loop in
//! [`crate::reference`], which is the differential oracle.

use crate::block::BlockVliw;
use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use asip_isa::{ActivityCounts, MachineDescription, VliwProgram};
use std::fmt;

/// Which execution engine the simulators drive. Both are
/// **observationally identical** — every [`SimResult`] field matches
/// bit-for-bit (the workspace differential suites pin this) — and differ
/// only in throughput:
///
/// * [`Reference`](SimEngine::Reference): the preserved interpretive
///   loops ([`crate::reference`]), the differential oracle.
/// * [`Block`](SimEngine::Block): the block-compiled superop engine
///   ([`crate::block`]) — basic blocks translated once into precomputed
///   block-level costs, dispatched by a threaded-code loop, falling back
///   to a cycle-exact slow path per bundle when a block's fast-path
///   assumptions fail. The default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Interpretive oracle loops.
    Reference,
    /// Block-compiled superop engine (default).
    #[default]
    Block,
}

impl SimEngine {
    /// Parse an engine name (`"reference"` or `"block"`,
    /// case-insensitive); `None` for anything else.
    pub fn parse(s: &str) -> Option<SimEngine> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(SimEngine::Reference),
            "block" => Some(SimEngine::Block),
            _ => None,
        }
    }

    /// The canonical lowercase name ([`SimEngine::parse`]'s input).
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Reference => "reference",
            SimEngine::Block => "block",
        }
    }
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Simulation limits and engine selection.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Abort after this many cycles.
    pub max_cycles: u64,
    /// Which execution engine serves the run. Engines are bit-identical in
    /// results, so this is purely a throughput/diagnostics knob — cached
    /// Simulate artifacts are deliberately keyed *without* it.
    pub engine: SimEngine,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: 2_000_000_000,
            engine: SimEngine::default(),
        }
    }
}

/// Simulator failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program does not validate against the machine description.
    InvalidProgram(String),
    /// Division by zero at the given bundle.
    DivideByZero {
        /// Bundle index.
        pc: u32,
    },
    /// Data-memory access out of bounds.
    MemFault {
        /// Bundle index.
        pc: u32,
        /// Offending word address.
        addr: i64,
    },
    /// Cycle limit exceeded.
    CycleLimit,
    /// The entry function expects more arguments than supplied.
    BadArgs {
        /// Expected count.
        expected: u32,
        /// Supplied count.
        got: u32,
    },
    /// `Ret` executed with a corrupted link register.
    WildReturn {
        /// Bundle index.
        pc: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SimError::DivideByZero { pc } => write!(f, "division by zero at bundle {pc}"),
            SimError::MemFault { pc, addr } => {
                write!(f, "memory fault at bundle {pc}, address {addr}")
            }
            SimError::CycleLimit => write!(f, "cycle limit exceeded"),
            SimError::BadArgs { expected, got } => {
                write!(f, "entry expects {expected} args, got {got}")
            }
            SimError::WildReturn { pc } => write!(f, "return through corrupt LR at bundle {pc}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a successful simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Values produced by `emit`, in order.
    pub output: Vec<i32>,
    /// Total cycles, stalls included.
    pub cycles: u64,
    /// Cycles lost to register/memory interlocks.
    pub interlock_stalls: u64,
    /// Cycles lost to I-cache misses.
    pub icache_stalls: u64,
    /// Cycles lost to taken-branch penalties.
    pub branch_stalls: u64,
    /// Bundles executed.
    pub bundles_executed: u64,
    /// Operations executed.
    pub ops_executed: u64,
    /// Dynamic activity counters for the energy model.
    pub activity: ActivityCounts,
    /// I-cache misses.
    pub icache_misses: u64,
    /// Final contents of the static data region: the first `data_words`
    /// words of data memory, where every global lives. The stack above the
    /// watermark is per-run scratch and not part of the result (keeping it
    /// would make every `SimResult` as large as the machine's whole dmem).
    pub memory: Vec<i32>,
}

impl SimResult {
    /// Mean executed operations per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops_executed as f64 / self.cycles as f64
        }
    }

    /// Read a global's final contents via the program's symbol table.
    pub fn read_global(&self, prog: &VliwProgram, name: &str) -> Option<Vec<i32>> {
        let g = prog.global(name)?;
        let base = g.addr as usize;
        Some(self.memory[base..base + g.words as usize].to_vec())
    }
}

/// Maximal runs `[start, end)` of nonzero words in `memory`. Encoding a
/// `SimResult` must scan the whole data-memory image (megabytes, almost all
/// zero), so the zero gaps are skipped block-wise — an all-zero check over
/// a fixed-size block vectorizes, where a word-at-a-time scan would not.
fn nonzero_runs(memory: &[i32]) -> Vec<(usize, usize)> {
    const BLOCK: usize = 128;
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let len = memory.len();
    let mut i = 0usize;
    while i < len {
        let block_end = (i + BLOCK).min(len);
        // OR-fold instead of `all()`: no short-circuit, so the all-zero
        // check vectorizes to wide SIMD ORs.
        if memory[i..block_end].iter().fold(0i32, |a, &v| a | v) == 0 {
            i = block_end;
            continue;
        }
        // The block holds data: emit maximal word-level runs inside it
        // (extending the last run across block boundaries when contiguous).
        for (j, &v) in memory[i..block_end].iter().enumerate() {
            if v == 0 {
                continue;
            }
            let j = i + j;
            match runs.last_mut() {
                Some(r) if r.1 == j => r.1 = j + 1,
                _ => runs.push((j, j + 1)),
            }
        }
        i = block_end;
    }
    runs
}

/// The versioned binary encoding that lets the tier cache memoize the
/// Simulate stage. The final data memory — megabytes of mostly zero words —
/// travels as sparse runs of nonzero values (`decode ∘ encode ≡ id`
/// exactly, like every artifact codec), so a cached `SimResult` costs
/// kilobytes, not the machine's whole `dmem`.
impl Codec for SimResult {
    fn encode(&self, w: &mut Writer) {
        self.output.encode(w);
        w.put_u64(self.cycles);
        w.put_u64(self.interlock_stalls);
        w.put_u64(self.icache_stalls);
        w.put_u64(self.branch_stalls);
        w.put_u64(self.bundles_executed);
        w.put_u64(self.ops_executed);
        self.activity.encode(w);
        w.put_u64(self.icache_misses);
        // Sparse memory image: total length, then (start, values) runs.
        w.put_u32(self.memory.len() as u32);
        let runs = nonzero_runs(&self.memory);
        w.put_u32(runs.len() as u32);
        for &(start, end) in &runs {
            w.put_u32(start as u32);
            w.put_u32((end - start) as u32);
            for &v in &self.memory[start..end] {
                w.put_i32(v);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let output = Vec::<i32>::decode(r)?;
        let cycles = r.get_u64()?;
        let interlock_stalls = r.get_u64()?;
        let icache_stalls = r.get_u64()?;
        let branch_stalls = r.get_u64()?;
        let bundles_executed = r.get_u64()?;
        let ops_executed = r.get_u64()?;
        let activity = ActivityCounts::decode(r)?;
        let icache_misses = r.get_u64()?;
        let mem_len = r.get_u32()? as usize;
        let runs = r.get_u32()?;
        let mut memory = vec![0i32; mem_len];
        for _ in 0..runs {
            let start = r.get_u32()? as usize;
            let count = r.get_u32()? as usize;
            if start.checked_add(count).is_none_or(|end| end > mem_len) {
                return Err(CodecError::BadLen {
                    len: count as u32,
                    remaining: mem_len.saturating_sub(start),
                });
            }
            for slot in memory.iter_mut().skip(start).take(count) {
                *slot = r.get_i32()?;
            }
        }
        Ok(SimResult {
            output,
            cycles,
            interlock_stalls,
            icache_stalls,
            branch_stalls,
            bundles_executed,
            ops_executed,
            activity,
            icache_misses,
            memory,
        })
    }
}

/// Stable wire tags: 0 = `InvalidProgram`, 1 = `DivideByZero`,
/// 2 = `MemFault`, 3 = `CycleLimit`, 4 = `BadArgs`, 5 = `WildReturn`.
/// Never renumber.
impl Codec for SimError {
    fn encode(&self, w: &mut Writer) {
        match self {
            SimError::InvalidProgram(msg) => {
                w.put_u8(0);
                w.put_str(msg);
            }
            SimError::DivideByZero { pc } => {
                w.put_u8(1);
                w.put_u32(*pc);
            }
            SimError::MemFault { pc, addr } => {
                w.put_u8(2);
                w.put_u32(*pc);
                w.put_u64(*addr as u64);
            }
            SimError::CycleLimit => w.put_u8(3),
            SimError::BadArgs { expected, got } => {
                w.put_u8(4);
                w.put_u32(*expected);
                w.put_u32(*got);
            }
            SimError::WildReturn { pc } => {
                w.put_u8(5);
                w.put_u32(*pc);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => SimError::InvalidProgram(r.get_str()?),
            1 => SimError::DivideByZero { pc: r.get_u32()? },
            2 => SimError::MemFault {
                pc: r.get_u32()?,
                addr: r.get_u64()? as i64,
            },
            3 => SimError::CycleLimit,
            4 => SimError::BadArgs {
                expected: r.get_u32()?,
                got: r.get_u32()?,
            },
            5 => SimError::WildReturn { pc: r.get_u32()? },
            tag => {
                return Err(CodecError::BadTag {
                    what: "SimError",
                    tag: tag.into(),
                })
            }
        })
    }
}

/// The engine a [`Simulator`] dispatches to, selected by
/// [`SimOptions::engine`] at construction.
#[derive(Debug)]
enum VliwBackend {
    /// The interpretive oracle re-reads the raw program per run, so this
    /// arm carries its own clones instead of a prepared form.
    Reference {
        machine: Box<MachineDescription>,
        program: Box<VliwProgram>,
    },
    Block(Box<BlockVliw>),
}

/// The simulator. Construct with [`Simulator::new`] — which prepares the
/// program once for the engine named by [`SimOptions::engine`] — optionally
/// override global data ([`Simulator::write_global`]), then
/// [`Simulator::run`] any number of times (each run starts from the same
/// prepared memory image).
#[derive(Debug)]
pub struct Simulator {
    backend: VliwBackend,
    /// Named global overrides recorded by [`Simulator::write_global`],
    /// replayed in order onto a fresh memory image at every run (rebuilding
    /// from lazily-zeroed pages is cheaper than copying a multi-megabyte
    /// image for the short kernels DSE sweeps measure).
    overrides: Vec<(String, Vec<i32>)>,
    opts: SimOptions,
}

impl Simulator {
    /// Prepare a simulation: validates the program and, for the block
    /// engine, block-compiles it (the engine is named in `opts`).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub fn new(
        machine: &MachineDescription,
        program: &VliwProgram,
        opts: SimOptions,
    ) -> Result<Simulator, SimError> {
        let backend = match opts.engine {
            SimEngine::Reference => {
                program
                    .validate(machine)
                    .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
                VliwBackend::Reference {
                    machine: Box::new(machine.clone()),
                    program: Box::new(program.clone()),
                }
            }
            SimEngine::Block => VliwBackend::Block(Box::new(BlockVliw::new(machine, program)?)),
        };
        Ok(Simulator {
            backend,
            overrides: Vec::new(),
            opts,
        })
    }

    /// The engine serving this simulator's runs.
    pub fn engine(&self) -> SimEngine {
        self.opts.engine
    }

    /// Overwrite a global before running (workload inputs). Returns false
    /// if the global does not exist.
    pub fn write_global(&mut self, name: &str, data: &[i32]) -> bool {
        let program = match &self.backend {
            VliwBackend::Reference { program, .. } => program.as_ref(),
            VliwBackend::Block(b) => b.program(),
        };
        let Some(g) = program.global(name) else {
            return false;
        };
        let take = (g.words as usize).min(data.len());
        self.overrides
            .push((name.to_string(), data[..take].to_vec()));
        true
    }

    /// Run the program's entry function with the given arguments.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised during execution.
    pub fn run(&self, args: &[i32]) -> Result<SimResult, SimError> {
        match &self.backend {
            VliwBackend::Reference { machine, program } => crate::reference::run_vliw_reference(
                machine,
                program,
                &self.overrides,
                args,
                self.opts,
            ),
            VliwBackend::Block(b) => b.run_with_inputs(&self.overrides, args, self.opts),
        }
    }
}

/// One-call convenience: simulate `program` on `machine` with `args`.
///
/// # Errors
///
/// Any [`SimError`].
pub fn run_program(
    machine: &MachineDescription,
    program: &VliwProgram,
    args: &[i32],
) -> Result<SimResult, SimError> {
    Simulator::new(machine, program, SimOptions::default())?.run(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &SimResult) {
        let bytes = r.encode_to_vec();
        let back = SimResult::decode_all(&bytes).expect("decodes");
        assert_eq!(&back, r);
        assert_eq!(back.encode_to_vec(), bytes, "re-encode is byte-stable");
    }

    #[test]
    fn sim_result_codec_roundtrips_sparse_memory() {
        let mut r = SimResult {
            output: vec![1, -2, 3],
            cycles: 99,
            interlock_stalls: 7,
            icache_stalls: 20,
            branch_stalls: 3,
            bundles_executed: 41,
            ops_executed: 77,
            activity: ActivityCounts {
                alu_ops: 50,
                mul_ops: 4,
                div_ops: 1,
                mem_ops: 12,
                branch_ops: 10,
                copy_ops: 0,
                custom_ops: 2,
                custom_area_executed: 14,
                bundles: 41,
                fetch_bytes: 600,
                idle_slots: 9,
                cycles: 99,
            },
            icache_misses: 2,
            memory: vec![0; 4096],
        };
        // A few scattered nonzero runs, including the edges.
        r.memory[0] = -5;
        r.memory[1] = 17;
        r.memory[100] = 1;
        r.memory[4095] = i32::MIN;
        roundtrip(&r);

        // Degenerate shapes.
        r.memory = vec![];
        roundtrip(&r);
        r.memory = vec![0; 17];
        roundtrip(&r);
        r.memory = vec![3; 17];
        roundtrip(&r);
    }

    #[test]
    fn sim_result_codec_rejects_out_of_range_runs() {
        let r = SimResult {
            output: vec![],
            cycles: 1,
            interlock_stalls: 0,
            icache_stalls: 0,
            branch_stalls: 0,
            bundles_executed: 1,
            ops_executed: 1,
            activity: ActivityCounts::default(),
            icache_misses: 0,
            memory: vec![0, 9, 0],
        };
        let mut bytes = r.encode_to_vec();
        // The run start lives right after the (len, runs) header; point it
        // past the end of memory.
        let start_off = bytes.len() - 4 /* value */ - 4 /* count */ - 4 /* start */;
        bytes[start_off..start_off + 4].copy_from_slice(&100u32.to_le_bytes());
        assert!(SimResult::decode_all(&bytes).is_err());
    }
}
