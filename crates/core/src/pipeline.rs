//! The end-to-end toolchain pipeline: TinyC → IR → optimization → profile →
//! backend → simulation, with golden-model checking.
//!
//! This is the engine under the "single family view" the paper's §3.1
//! promises programmers. Most callers should hold a configured
//! [`Session`](crate::session::Session) (built with
//! [`Session::builder`](crate::session::Session::builder)) and submit
//! [`EvalRequest`](crate::session::EvalRequest) batches; the `Toolchain`
//! here is the per-stage engine those sessions drive.
//!
//! # The stage graph
//!
//! A workload run is an explicit five-stage graph:
//!
//! ```text
//! Parse ──► Optimize ──► Profile ──┐
//!              │                   ▼
//!              └──────────────► Compile[target] ──► Simulate[target]
//! ```
//!
//! The back half dispatches on the machine's [`TargetKind`]: VLIW tables
//! compile to bundled programs and simulate on the bundle-issue model;
//! scalar tables compile to linear [`asip_isa::ScalarProgram`]s and
//! simulate on the in-order pipeline model ([`asip_sim::scalar`]). Both
//! flavors flow through the same stages, caches and error currency.
//!
//! The first four stages are **memoized** in an [`ArtifactCache`] shared by
//! every clone of a [`Toolchain`]: parsing is keyed by source text,
//! optimization by (source, [`OptConfig`]), profiling by (module, inputs,
//! args), and compilation by (target kind, module, machine, backend
//! options, profile) — so the two target flavors can never alias.
//!
//! [`Simulate`](StageKind::Simulate) is memoized too: both cycle-level
//! engines are deterministic functions of (compiled artifact, machine
//! tables, [`SimOptions`], workload inputs and arguments), which is exactly
//! what the target-flavored Simulate key renders — so a repeated identical
//! cell across ISE/DSE sweeps, or a disk-warm rerun of a whole grid, skips
//! simulation entirely and returns a byte-identical `SimResult`. The
//! golden-output check runs on every call (hit or miss), outside the
//! cached computation. The N×M grid ([`crate::nxm`]) and the ISE/DSE
//! search loops ([`crate::ise`], [`crate::dse`]) therefore stop
//! recompiling identical front halves *and* stop re-measuring identical
//! cells: evaluating M machines against one workload parses, optimizes and
//! profiles it once, and re-evaluating any (artifact, machine, inputs)
//! triple costs a cache probe.
//!
//! Cache keys are the full rendered artifact inputs with stored-key
//! verification in every tier, so a hit can never silently collide. The
//! cache is **tiered** (see [`crate::cache`]): an LRU byte-budgeted memory
//! tier, plus an optional persistent disk tier that lets a fresh process
//! warm-start the whole front half. [`Toolchain::cache_stats`] exposes
//! per-stage hit/miss and per-tier counters and [`Toolchain::stage_times`]
//! cumulative per-stage execution time.

pub use crate::cache::{ArtifactCache, CacheConfig, CacheStats, StageKind, StageStats, StageTimes};
use asip_backend::{
    compile_module, compile_module_scalar, BackendOptions, BackendStats, CompiledProgram,
    CompiledScalarProgram,
};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::{optimize, OptConfig};
use asip_ir::Module;
use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use asip_isa::{MachineDescription, TargetKind};
use asip_sim::reference::{run_scalar_reference, run_vliw_reference};
use asip_sim::{BlockScalar, BlockVliw, SimEngine, SimOptions, SimResult};
use asip_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Toolchain failure at any stage.
///
/// This is the single error currency of the whole driver layer: grid cells,
/// DSE design points and batch evaluations all report through it (not
/// stringly `Result<_, String>` shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum ToolchainError {
    /// Frontend error.
    Frontend(asip_tinyc::CompileError),
    /// Backend error.
    Backend(asip_backend::BackendError),
    /// Simulator error.
    Sim(asip_sim::SimError),
    /// Interpreter error while profiling.
    Profile(asip_ir::InterpError),
    /// The simulated output did not match the workload's golden stream.
    WrongOutput {
        /// Workload name.
        workload: String,
        /// Machine name.
        machine: String,
        /// Expected prefix.
        expected: Vec<i32>,
        /// Actual prefix.
        actual: Vec<i32>,
    },
}

impl fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolchainError::Frontend(e) => write!(f, "frontend: {e}"),
            ToolchainError::Backend(e) => write!(f, "backend: {e}"),
            ToolchainError::Sim(e) => write!(f, "simulator: {e}"),
            ToolchainError::Profile(e) => write!(f, "profiling: {e}"),
            ToolchainError::WrongOutput {
                workload,
                machine,
                expected,
                actual,
            } => write!(
                f,
                "{workload} on {machine}: wrong output (expected {:?}…, got {:?}…)",
                &expected[..expected.len().min(4)],
                &actual[..actual.len().min(4)]
            ),
        }
    }
}

impl std::error::Error for ToolchainError {}

impl From<asip_tinyc::CompileError> for ToolchainError {
    fn from(e: asip_tinyc::CompileError) -> Self {
        ToolchainError::Frontend(e)
    }
}

impl From<asip_backend::BackendError> for ToolchainError {
    fn from(e: asip_backend::BackendError) -> Self {
        ToolchainError::Backend(e)
    }
}

impl From<asip_sim::SimError> for ToolchainError {
    fn from(e: asip_sim::SimError) -> Self {
        ToolchainError::Sim(e)
    }
}

/// Append `blob` to `key` as lowercase hex and return the result as a
/// `String` (hex expansion keeps codec-rendered keys valid UTF-8).
fn hex_expand(mut key: Vec<u8>, blob: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let at = key.len();
    key.resize(at + blob.len() * 2, 0);
    for (pair, &b) in key[at..].chunks_exact_mut(2).zip(blob) {
        pair[0] = HEX[(b >> 4) as usize];
        pair[1] = HEX[(b & 15) as usize];
    }
    String::from_utf8(key).expect("hex expansion is ASCII")
}

/// Stable fingerprint of an optional profile: entries sorted by function id
/// (the underlying `HashMap`'s debug order is not deterministic).
fn profile_key(profile: Option<&Profile>) -> String {
    match profile {
        None => "none".to_string(),
        Some(p) => {
            let mut entries: Vec<(&u32, &Vec<u64>)> = p.counts.iter().collect();
            entries.sort_by_key(|(id, _)| **id);
            format!("{entries:?}")
        }
    }
}

/// The configured toolchain engine.
///
/// Cloning is cheap and shares the [`ArtifactCache`]; use
/// [`Toolchain::fresh_cache`] for an isolated one, or
/// [`Toolchain::with_cache`] to attach a specific cache (that is how
/// [`Session`](crate::session::Session) wires a budgeted cache in).
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Optimization pipeline configuration.
    pub opt: OptConfig,
    /// Backend configuration.
    pub backend: BackendOptions,
    /// Use interpreter profiles to guide superblock formation.
    pub profile_guided: bool,
    /// Simulation limits applied to every [`Toolchain::run_compiled`].
    pub sim: SimOptions,
    cache: Arc<ArtifactCache>,
}

impl Default for Toolchain {
    fn default() -> Self {
        Toolchain {
            opt: OptConfig::default(),
            backend: BackendOptions::default(),
            profile_guided: true,
            sim: SimOptions::default(),
            cache: Arc::new(ArtifactCache::new()),
        }
    }
}

/// A compiled program for either target kind.
///
/// The Compile stage produces (and caches) one of these; which variant
/// depends on the machine's [`TargetKind`]. Cache keys carry the target
/// flavor, so a VLIW and a scalar compile of the same (module, machine
/// table) can never alias.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledArtifact {
    /// An exposed-pipeline VLIW program.
    Vliw(CompiledProgram),
    /// A linear scalar program.
    Scalar(CompiledScalarProgram),
}

/// The versioned binary encoding of a Compile-stage artifact: a target tag
/// byte followed by the target's own program codec. This is what the
/// persistent cache tier stores and verifies for the Compile stage.
impl Codec for CompiledArtifact {
    fn encode(&self, w: &mut Writer) {
        match self {
            CompiledArtifact::Vliw(p) => {
                w.put_u8(0);
                p.encode(w);
            }
            CompiledArtifact::Scalar(p) => {
                w.put_u8(1);
                p.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(CompiledArtifact::Vliw(CompiledProgram::decode(r)?)),
            1 => Ok(CompiledArtifact::Scalar(CompiledScalarProgram::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "CompiledArtifact",
                tag: tag.into(),
            }),
        }
    }
}

impl CompiledArtifact {
    /// Compile-time statistics, whichever the target.
    pub fn stats(&self) -> BackendStats {
        match self {
            CompiledArtifact::Vliw(p) => p.stats,
            CompiledArtifact::Scalar(p) => p.stats,
        }
    }

    /// Code size in bytes under the machine's own encoding.
    pub fn code_bytes(&self, machine: &MachineDescription) -> u32 {
        match self {
            CompiledArtifact::Vliw(p) => {
                asip_isa::encoding::code_bytes(&p.program, machine, machine.encoding)
            }
            CompiledArtifact::Scalar(p) => p.program.code_bytes(machine.encoding),
        }
    }

    /// The VLIW program, if this is one.
    pub fn vliw(&self) -> Option<&CompiledProgram> {
        match self {
            CompiledArtifact::Vliw(p) => Some(p),
            CompiledArtifact::Scalar(_) => None,
        }
    }

    /// The scalar program, if this is one.
    pub fn scalar(&self) -> Option<&CompiledScalarProgram> {
        match self {
            CompiledArtifact::Vliw(_) => None,
            CompiledArtifact::Scalar(p) => Some(p),
        }
    }
}

/// Result of running one workload on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Simulation result.
    pub sim: SimResult,
    /// Compile-time statistics.
    pub compile: BackendStats,
    /// Code size in bytes under the machine's encoding.
    pub code_bytes: u32,
}

impl Toolchain {
    /// A toolchain with all optimizations off (baseline for ablations).
    pub fn unoptimized() -> Toolchain {
        Toolchain {
            opt: OptConfig::none(),
            backend: BackendOptions {
                superblocks: false,
                ..Default::default()
            },
            profile_guided: false,
            sim: SimOptions::default(),
            cache: Arc::new(ArtifactCache::new()),
        }
    }

    /// This configuration with a new, empty, unshared artifact cache (same
    /// byte budget and hashing configuration).
    pub fn fresh_cache(&self) -> Toolchain {
        self.with_cache(Arc::new(ArtifactCache::with_config(self.cache.config())))
    }

    /// This configuration backed by `cache` instead of its current one.
    pub fn with_cache(&self, cache: Arc<ArtifactCache>) -> Toolchain {
        Toolchain {
            opt: self.opt.clone(),
            backend: self.backend.clone(),
            profile_guided: self.profile_guided,
            sim: self.sim,
            cache,
        }
    }

    /// The shared artifact cache (stats, clearing, introspection).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Per-stage cache hit/miss counters plus eviction/residency totals.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative per-stage execution times (cache hits cost nothing).
    pub fn stage_times(&self) -> StageTimes {
        self.cache.stage_times()
    }

    /// **Parse stage**: TinyC source → unoptimized IR module. Cached by
    /// source text.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn parse(&self, source: &str) -> Result<Module, ToolchainError> {
        self.cache
            .get_or_compute(StageKind::Parse, source.to_string(), |t| {
                Ok(t.time(|| asip_tinyc::compile(source))?)
            })
    }

    /// **Parse + Optimize stages**: TinyC source → optimized IR module.
    /// The optimize stage is cached by (source, [`OptConfig`]).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn frontend(&self, source: &str) -> Result<Module, ToolchainError> {
        let key = format!("{:?}\u{1f}{source}", self.opt);
        self.cache.get_or_compute(StageKind::Optimize, key, |t| {
            // Parse times itself under its own stage.
            let mut module = self.parse(source)?;
            t.time(|| optimize(&mut module, &self.opt));
            Ok(module)
        })
    }

    /// **Profile stage**: interpret the module to collect block execution
    /// counts. Cached by (module, inputs, args).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Profile`] if interpretation fails.
    pub fn profile(
        &self,
        module: &Module,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
    ) -> Result<Profile, ToolchainError> {
        let key = format!("{module:?}\u{1f}{inputs:?}\u{1f}{args:?}");
        self.cache.get_or_compute(StageKind::Profile, key, |t| {
            t.time(|| {
                let mut interp = Interp::new(module, InterpOptions::default());
                for (name, data) in inputs {
                    interp.write_global(name, data);
                }
                let r = interp.run("main", args).map_err(ToolchainError::Profile)?;
                Ok(r.profile)
            })
        })
    }

    /// Cached compile of one target flavor. The key leads with the flavor
    /// name, so a VLIW and a scalar artifact of the same (module, machine,
    /// options, profile) can never collide in the cache.
    fn compile_flavor(
        &self,
        flavor: TargetKind,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledArtifact, ToolchainError> {
        let key = format!(
            "{flavor}\u{1f}{module:?}\u{1f}{machine:?}\u{1f}{:?}\u{1f}{}",
            self.backend,
            profile_key(profile)
        );
        self.cache.get_or_compute(StageKind::Compile, key, |t| {
            t.time(|| match flavor {
                TargetKind::Vliw => Ok(CompiledArtifact::Vliw(compile_module(
                    module,
                    machine,
                    profile,
                    &self.backend,
                )?)),
                TargetKind::Scalar => Ok(CompiledArtifact::Scalar(compile_module_scalar(
                    module,
                    machine,
                    profile,
                    &self.backend,
                )?)),
            })
        })
    }

    /// **Compile stage**, dispatched on the machine's [`TargetKind`]: IR
    /// module → VLIW or scalar program (optionally profile-guided). Cached
    /// by (target, module, machine, backend options, profile).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Backend`].
    pub fn compile_for(
        &self,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledArtifact, ToolchainError> {
        self.compile_flavor(machine.target, module, machine, profile)
    }

    /// **Compile stage**, VLIW flavor: IR module → VLIW machine program
    /// regardless of the machine's declared target (the binary-translation
    /// flows compile arbitrary family tables this way). Cached like
    /// [`Toolchain::compile_for`].
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Backend`].
    pub fn compile(
        &self,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledProgram, ToolchainError> {
        let art = self.compile_flavor(TargetKind::Vliw, module, machine, profile)?;
        Ok(art
            .vliw()
            .expect("vliw-flavored keys hold vliw artifacts")
            .clone())
    }

    /// **Compile stage**, scalar flavor: IR module → linear scalar program.
    /// Cached like [`Toolchain::compile_for`].
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Backend`].
    pub fn compile_scalar(
        &self,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledScalarProgram, ToolchainError> {
        let art = self.compile_flavor(TargetKind::Scalar, module, machine, profile)?;
        Ok(art
            .scalar()
            .expect("scalar-flavored keys hold scalar artifacts")
            .clone())
    }

    /// Full stage graph for one workload on one machine, checking the
    /// golden output. Every stage but the final simulation is served from
    /// the artifact cache when possible.
    ///
    /// # Errors
    ///
    /// Any [`ToolchainError`], including [`ToolchainError::WrongOutput`]
    /// when the simulated stream differs from the golden model.
    pub fn run_workload(
        &self,
        w: &Workload,
        machine: &MachineDescription,
    ) -> Result<WorkloadRun, ToolchainError> {
        let module = self.frontend(&w.source)?;
        let profile = if self.profile_guided {
            Some(self.profile(&module, &w.inputs, &w.args)?)
        } else {
            None
        };
        let compiled = self.compile_for(&module, machine, profile.as_ref())?;
        self.run_artifact(w, machine, &compiled)
    }

    /// The Simulate-stage cache key. Flavor-tagged like Compile keys, and
    /// covering everything that can change the deterministic measurement:
    /// the compiled program, the machine tables, the [`SimOptions`]
    /// *limits*, and the workload's inputs and arguments. The program and
    /// the input data are rendered through their lossless binary codec
    /// (hex-expanded) rather than `Debug` formatting — the key is built on
    /// the hot path of every cell, and the codec writer is an order of
    /// magnitude cheaper than `fmt` while remaining a complete, injective
    /// rendering. Two things are deliberately *not* part of the key:
    ///
    /// * the [`SimEngine`] choice — every engine produces bit-identical
    ///   `SimResult`s (pinned by the differential suites and the
    ///   `session_env` engine-invariance test), so a cell measured under
    ///   one engine is a valid hit for any other, on either tier;
    /// * the golden `expected` stream — the output check runs on every
    ///   call, hit or miss, so a sabotaged expectation still reports
    ///   [`ToolchainError::WrongOutput`] against the cached measurement.
    fn simulate_key<P: Codec>(
        &self,
        flavor: TargetKind,
        machine: &MachineDescription,
        program: &P,
        w: &Workload,
    ) -> String {
        let mut blob = Writer::new();
        program.encode(&mut blob);
        blob.put_u32(w.inputs.len() as u32);
        for (name, data) in &w.inputs {
            blob.put_str(name);
            data.encode(&mut blob);
        }
        w.args.encode(&mut blob);
        let key = format!(
            "{flavor}\u{1f}{machine:?}\u{1f}max_cycles={}\u{1f}",
            self.sim.max_cycles
        );
        hex_expand(key.into_bytes(), &blob.into_bytes())
    }

    /// The prepared-simulation key (see [`ArtifactCache::get_or_prepare`]):
    /// everything a preparation reads — target flavor, machine tables,
    /// program — with the program codec-rendered like
    /// [`Toolchain::simulate_key`]. Only the block engine prepares, so the
    /// key carries no engine tag.
    fn prepare_key<P: Codec>(
        &self,
        flavor: TargetKind,
        machine: &MachineDescription,
        program: &P,
    ) -> String {
        let mut blob = Writer::new();
        program.encode(&mut blob);
        let key = format!("{flavor}\u{1f}{machine:?}\u{1f}");
        hex_expand(key.into_bytes(), &blob.into_bytes())
    }

    /// One VLIW measurement on the configured [`SimEngine`]. The block
    /// engine runs from a prepared form served by the cache's
    /// process-local preparation map ([`CacheStats::decode`]), so repeated
    /// runs of the same artifact skip validation + block discovery; the
    /// reference interpreter prepares nothing by design.
    fn simulate_vliw(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledProgram,
    ) -> Result<SimResult, ToolchainError> {
        let program = &compiled.program;
        match self.sim.engine {
            SimEngine::Reference => Ok(run_vliw_reference(
                machine, program, &w.inputs, &w.args, self.sim,
            )?),
            SimEngine::Block => {
                let key = self.prepare_key(TargetKind::Vliw, machine, program);
                let b = self
                    .cache
                    .get_or_prepare(key, || Ok(BlockVliw::new(machine, program)?))?;
                Ok(b.run_with_inputs(&w.inputs, &w.args, self.sim)?)
            }
        }
    }

    /// One scalar measurement on the configured [`SimEngine`]; prepared
    /// forms are shared exactly like [`Toolchain::simulate_vliw`].
    fn simulate_scalar(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledScalarProgram,
    ) -> Result<SimResult, ToolchainError> {
        let program = &compiled.program;
        match self.sim.engine {
            SimEngine::Reference => Ok(run_scalar_reference(
                machine, program, &w.inputs, &w.args, self.sim,
            )?),
            SimEngine::Block => {
                let key = self.prepare_key(TargetKind::Scalar, machine, program);
                let b = self
                    .cache
                    .get_or_prepare(key, || Ok(BlockScalar::new(machine, program)?))?;
                Ok(b.run_with_inputs(&w.inputs, &w.args, self.sim)?)
            }
        }
    }

    /// Golden-model output check shared by both Simulate flavors.
    fn check_output(
        result: &SimResult,
        w: &Workload,
        machine: &MachineDescription,
    ) -> Result<(), ToolchainError> {
        if result.output != w.expected {
            return Err(ToolchainError::WrongOutput {
                workload: w.name.clone(),
                machine: machine.name.clone(),
                expected: w.expected.clone(),
                actual: result.output.clone(),
            });
        }
        Ok(())
    }

    /// **Simulate stage**: run an already-compiled workload (used by sweeps
    /// that vary only the simulation conditions). **Memoized** like every
    /// other stage: the engines are deterministic functions of the key's
    /// rendered inputs, so a repeated identical cell across ISE/DSE sweeps
    /// — or a disk-warm rerun — skips the cycle loop entirely and returns
    /// a byte-identical [`SimResult`]. Errors are never cached.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Sim`] or [`ToolchainError::WrongOutput`].
    pub fn run_compiled(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledProgram,
    ) -> Result<WorkloadRun, ToolchainError> {
        let key = self.simulate_key(TargetKind::Vliw, machine, &compiled.program, w);
        let result = self.cache.get_or_compute(StageKind::Simulate, key, |t| {
            let result = t.time(|| self.simulate_vliw(w, machine, compiled))?;
            self.cache.record_sim_cycles(result.cycles);
            Ok(result)
        })?;
        Self::check_output(&result, w, machine)?;
        let code_bytes =
            asip_isa::encoding::code_bytes(&compiled.program, machine, machine.encoding);
        Ok(WorkloadRun {
            workload: w.name.clone(),
            machine: machine.name.clone(),
            sim: result,
            compile: compiled.stats,
            code_bytes,
        })
    }

    /// **Simulate stage**, scalar flavor: run an already-compiled scalar
    /// workload on the in-order pipeline model. Memoized like
    /// [`Toolchain::run_compiled`], with a scalar-flavored key.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Sim`] or [`ToolchainError::WrongOutput`].
    pub fn run_compiled_scalar(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledScalarProgram,
    ) -> Result<WorkloadRun, ToolchainError> {
        let key = self.simulate_key(TargetKind::Scalar, machine, &compiled.program, w);
        let result = self.cache.get_or_compute(StageKind::Simulate, key, |t| {
            let result = t.time(|| self.simulate_scalar(w, machine, compiled))?;
            self.cache.record_sim_cycles(result.cycles);
            Ok(result)
        })?;
        Self::check_output(&result, w, machine)?;
        let code_bytes = compiled.program.code_bytes(machine.encoding);
        Ok(WorkloadRun {
            workload: w.name.clone(),
            machine: machine.name.clone(),
            sim: result,
            compile: compiled.stats,
            code_bytes,
        })
    }

    /// **Simulate stage** for either artifact kind: dispatches to the VLIW
    /// or the scalar pipeline model. Never cached — this is the
    /// measurement.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Sim`] or [`ToolchainError::WrongOutput`].
    pub fn run_artifact(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledArtifact,
    ) -> Result<WorkloadRun, ToolchainError> {
        match compiled {
            CompiledArtifact::Vliw(p) => self.run_compiled(w, machine, p),
            CompiledArtifact::Scalar(p) => self.run_compiled_scalar(w, machine, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_runs_and_checks_on_ember4() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let run = tc.run_workload(&w, &m).unwrap();
        assert!(run.sim.cycles > 0);
        assert!(run.code_bytes > 0);
        assert_eq!(run.workload, "fir");
    }

    #[test]
    fn unoptimized_toolchain_also_correct_but_slower() {
        let opt = Toolchain::default();
        let unopt = Toolchain::unoptimized();
        let w = asip_workloads::by_name("autocorr").unwrap();
        let m = MachineDescription::ember4();
        let fast = opt.run_workload(&w, &m).unwrap();
        let slow = unopt.run_workload(&w, &m).unwrap();
        assert!(
            fast.sim.cycles < slow.sim.cycles,
            "optimization must help: {} vs {}",
            fast.sim.cycles,
            slow.sim.cycles
        );
    }

    #[test]
    fn wrong_expected_detected() {
        let tc = Toolchain::default();
        let mut w = asip_workloads::by_name("crc32").unwrap();
        w.expected = vec![42]; // sabotage
        let m = MachineDescription::ember1();
        let err = tc.run_workload(&w, &m).unwrap_err();
        assert!(matches!(err, ToolchainError::WrongOutput { .. }));
    }

    #[test]
    fn repeated_run_hits_every_cacheable_stage() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();

        let first = tc.run_workload(&w, &m).unwrap();
        let cold = tc.cache_stats();
        assert_eq!(cold.hits(), 0, "first run must be all misses: {cold}");
        assert_eq!(cold.parse.misses, 1);
        assert_eq!(cold.optimize.misses, 1);
        assert_eq!(cold.profile.misses, 1);
        assert_eq!(cold.compile.misses, 1);
        assert_eq!(cold.simulate.misses, 1);

        let second = tc.run_workload(&w, &m).unwrap();
        let warm = tc.cache_stats();
        assert_eq!(warm.optimize.hits, 1, "{warm}");
        assert_eq!(warm.profile.hits, 1, "{warm}");
        assert_eq!(warm.compile.hits, 1, "{warm}");
        assert_eq!(warm.simulate.hits, 1, "{warm}");
        // No stage recomputed.
        assert_eq!(warm.misses(), cold.misses(), "{warm}");

        // Cached and uncached runs are bit-identical measurements — the
        // memoized Simulate hit returns the whole SimResult unchanged.
        assert_eq!(first.sim, second.sim);
        assert_eq!(first.code_bytes, second.code_bytes);
    }

    #[test]
    fn new_machine_reuses_front_half() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("sobel").unwrap();
        tc.run_workload(&w, &MachineDescription::ember1()).unwrap();
        let before = tc.cache_stats();
        tc.run_workload(&w, &MachineDescription::ember8()).unwrap();
        let after = tc.cache_stats();
        // Second machine: frontend + profile served from cache…
        assert_eq!(after.optimize.hits, before.optimize.hits + 1);
        assert_eq!(after.profile.hits, before.profile.hits + 1);
        // …but its compile is a genuine miss (different machine key).
        assert_eq!(after.compile.misses, before.compile.misses + 1);
        assert_eq!(after.compile.hits, before.compile.hits);
    }

    #[test]
    fn cached_result_equals_fresh_toolchain_result() {
        let shared = Toolchain::default();
        let w = asip_workloads::by_name("viterbi").unwrap();
        let m = MachineDescription::ember4();
        shared.run_workload(&w, &m).unwrap();
        let warm = shared.run_workload(&w, &m).unwrap();
        let cold = shared.fresh_cache().run_workload(&w, &m).unwrap();
        assert_eq!(warm.sim.cycles, cold.sim.cycles);
        assert_eq!(warm.sim.output, cold.sim.output);
        assert_eq!(warm.code_bytes, cold.code_bytes);
        assert!(shared.cache_stats().hits() > 0);
        assert_eq!(shared.fresh_cache().cache_stats().hits(), 0);
    }

    #[test]
    fn clones_share_the_cache() {
        let tc = Toolchain::default();
        let clone = tc.clone();
        let w = asip_workloads::by_name("rle").unwrap();
        let m = MachineDescription::ember2();
        tc.run_workload(&w, &m).unwrap();
        clone.run_workload(&w, &m).unwrap();
        assert!(clone.cache_stats().hits() >= 3, "{}", clone.cache_stats());
        assert_eq!(tc.cache_stats(), clone.cache_stats());
    }

    #[test]
    fn clear_cache_resets_everything() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        tc.run_workload(&w, &MachineDescription::ember1()).unwrap();
        assert!(!tc.cache().is_empty());
        tc.cache().clear();
        assert!(tc.cache().is_empty());
        assert_eq!(tc.cache_stats(), CacheStats::default());
    }

    #[test]
    fn different_opt_configs_do_not_alias() {
        let opt = Toolchain::default();
        // Same cache, different OptConfig → distinct optimize/compile keys.
        let mut unopt = opt.clone();
        unopt.opt = OptConfig::none();
        unopt.backend = BackendOptions {
            superblocks: false,
            ..Default::default()
        };
        unopt.profile_guided = false;
        let w = asip_workloads::by_name("autocorr").unwrap();
        let m = MachineDescription::ember4();
        let fast = opt.run_workload(&w, &m).unwrap();
        let slow = unopt.run_workload(&w, &m).unwrap();
        assert!(fast.sim.cycles < slow.sim.cycles);
        let stats = opt.cache_stats();
        // Two distinct optimized modules and compiles, one shared parse.
        assert_eq!(stats.optimize.misses, 2);
        assert_eq!(stats.compile.misses, 2);
        assert_eq!(stats.parse.misses, 1);
        assert_eq!(stats.parse.hits, 1);
    }

    #[test]
    fn stage_times_accumulate_only_on_execution() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        tc.run_workload(&w, &m).unwrap();
        let t1 = tc.stage_times();
        for s in StageKind::ALL {
            assert!(t1.get(s) > 0, "stage {s} should have recorded time");
        }
        tc.run_workload(&w, &m).unwrap();
        let t2 = tc.stage_times();
        // Cached stages record no new time — Simulate included, now that
        // the measurement itself is memoized.
        assert_eq!(t2.get(StageKind::Compile), t1.get(StageKind::Compile));
        assert_eq!(t2.get(StageKind::Optimize), t1.get(StageKind::Optimize));
        assert_eq!(t2.get(StageKind::Simulate), t1.get(StageKind::Simulate));
    }

    #[test]
    fn simulate_memoization_survives_sabotaged_expectations() {
        // The golden check runs outside the cached computation: a cached
        // Simulate hit must still be checked against the (possibly
        // different) expected stream of *this* call.
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("rle").unwrap();
        let m = MachineDescription::ember2();
        tc.run_workload(&w, &m).unwrap();
        let mut sabotaged = w.clone();
        sabotaged.expected = vec![-123];
        let err = tc.run_workload(&sabotaged, &m).unwrap_err();
        assert!(matches!(err, ToolchainError::WrongOutput { .. }));
        let stats = tc.cache_stats();
        assert_eq!(
            stats.simulate.hits, 1,
            "sabotaged rerun hits the cached measurement: {stats}"
        );
        // And the honest workload still passes afterwards.
        tc.run_workload(&w, &m).unwrap();
    }

    #[test]
    fn sim_cycles_accumulate_only_on_execution() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let run = tc.run_workload(&w, &m).unwrap();
        assert_eq!(tc.cache().sim_cycles(), run.sim.cycles);
        tc.run_workload(&w, &m).unwrap();
        assert_eq!(
            tc.cache().sim_cycles(),
            run.sim.cycles,
            "a Simulate cache hit must not recount cycles"
        );
    }
}
