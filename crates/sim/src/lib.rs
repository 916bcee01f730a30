//! # asip-sim — cycle-level simulation of customized family members
//!
//! "Fast and accurate simulation of everything" is item 4 of the paper's
//! toolchain discipline (§3.1). Two pipeline models live here, one per
//! [`asip_isa::TargetKind`]; both read the same machine tables the
//! compilers read, so retargeting never requires simulator changes —
//! including application-specific custom operations, which are interpreted
//! from their stored dataflow graphs:
//!
//! * **VLIW** ([`run`]): executes any [`asip_isa::VliwProgram`] with
//!   in-order bundle issue and whole-machine interlock on not-ready
//!   registers (schedule quality shows up as stall cycles, never as wrong
//!   answers);
//! * **Scalar** ([`scalar`]): executes any [`asip_isa::ScalarProgram`] on
//!   an in-order 1–2-issue pipeline with result forwarding, load-use and
//!   taken-branch stalls — the measured §2.2 "binary-compatible" baseline.
//!
//! Both charge fetch through the same LRU set-associative I-cache model
//! under the machine's instruction encoding, and both report through one
//! [`SimResult`].
//!
//! ## The engines
//!
//! Fast candidate evaluation is what makes instruction-set exploration
//! tractable, so there is one fast engine per target beside the oracle.
//! [`Simulator::new`] and [`ScalarSimulator::new`] prepare the program +
//! machine description **once**: the default [`SimEngine::Block`]
//! pre-decodes it into a dense form (operands as flat register indices,
//! latencies/activity classes/fetch geometry baked from the machine
//! tables, branch targets resolved, the scalar dual-issue pairing rule
//! precomputed per adjacent pair), discovers basic blocks (via
//! `asip_dbt::blocks`) and translates each hot block — on first visit,
//! into a per-block [`std::sync::OnceLock`] cache — into a **superop**
//! whose static costs (issue cycles, interlock stalls against a
//! block-entry scoreboard, fetch bytes, activity deltas, touched I-cache
//! lines) are folded at translate time ([`block`]). The dispatch loop then
//! executes whole blocks: entry guards (block-start pc, no in-flight
//! writes, resident I-cache lines, headroom under the cycle limit) decide
//! per dispatch whether the superop applies; when any guard fails,
//! execution falls back to an exact cycle-by-cycle slow path for one pc
//! and re-attempts fast dispatch at the next block boundary.
//!
//! [`SimEngine::Reference`] runs the original interpretive loops preserved
//! in [`mod@reference`], the differential-testing oracle. The two engines
//! are observationally identical — the workspace test suite pins
//! bit-identical [`SimResult`]s on every preset × kernel and under fuzzed
//! machine configurations, slow-path fallbacks included.
//!
//! ## Example
//!
//! ```
//! use asip_backend::{compile_module, BackendOptions};
//! use asip_isa::MachineDescription;
//! use asip_sim::run_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = asip_tinyc::compile("void main(int n) { emit(n * n); }")?;
//! let machine = MachineDescription::ember4();
//! let compiled = compile_module(&module, &machine, None, &BackendOptions::default())?;
//! let result = run_program(&machine, &compiled.program, &[9])?;
//! assert_eq!(result.output, vec![81]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod block;
mod exec;
pub mod icache;
pub mod reference;
pub mod run;
pub mod scalar;

pub use block::{BlockScalar, BlockVliw};
pub use icache::ICache;
pub use run::{run_program, SimEngine, SimError, SimOptions, SimResult, Simulator};
pub use scalar::{run_scalar_program, ScalarSimulator};
