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
//! Every stage is **memoized** in an [`ArtifactCache`] shared by every
//! clone of a [`Toolchain`], under a fixed-size, content-addressed key (see
//! [Stage keys](#stage-keys)). Simulate is memoized too: both cycle-level
//! engines are deterministic functions of (compiled artifact, machine
//! tables, [`SimOptions`] limits, workload inputs and arguments) — so a
//! repeated identical cell across ISE/DSE sweeps, or a disk-warm rerun of
//! a whole grid, skips simulation entirely and returns a byte-identical
//! `SimResult`. The golden-output check runs on every call (hit or miss),
//! outside the cached computation. The N×M grid ([`crate::nxm`]) and the
//! ISE/DSE search loops ([`crate::ise`], [`crate::dse`]) therefore stop
//! recompiling identical front halves *and* stop re-measuring identical
//! cells: evaluating M machines against one workload parses, optimizes and
//! profiles it once, and re-evaluating any (artifact, machine, inputs)
//! triple costs a cache probe.
//!
//! # Stage keys
//!
//! Keys are 128-bit [`ArtifactId`]s. An artifact's ID is the hash of its
//! codec payload, computed once when the payload is first encoded and
//! handed back with every hit; leaf values — the machine, the workload's
//! inputs plus arguments, a module rewritten by ISE — are hashed from
//! their codec bytes where they enter. A stage key hashes the stage tag,
//! the IDs of the stage's inputs and its options:
//!
//! | stage    | key                                                              |
//! |----------|------------------------------------------------------------------|
//! | Parse    | H(source)                                                        |
//! | Optimize | H([`OptConfig`], source)                                         |
//! | Profile  | H(module, inputs)                                                |
//! | Compile  | H(flavor, module, machine, [`BackendOptions`], profile or none)  |
//! | Simulate | H(flavor, compiled, machine, `max_cycles`, inputs)               |
//! | prepare  | H(flavor, machine, compiled)                                     |
//!
//! The flavor is the target kind compiled for, so a VLIW and a scalar
//! artifact of the same inputs never alias. [`Session`] threads the IDs
//! from stage to stage; the public stage calls here ([`Toolchain::parse`],
//! [`Toolchain::frontend`], [`Toolchain::profile`],
//! [`Toolchain::compile_for`], [`Toolchain::run_artifact`]) hash their
//! arguments instead and derive the very same keys. Two inputs are
//! deliberately *not* keyed: the [`SimEngine`] choice (every engine
//! produces bit-identical `SimResult`s, pinned by the differential suites)
//! and the golden `expected` stream (checked on every call, so a sabotaged
//! expectation still reports [`ToolchainError::WrongOutput`] against a
//! cached measurement). See [`crate::cache`] for the collision trade-off.
//!
//! The cache is **tiered**: an LRU byte-budgeted memory tier, plus an
//! optional persistent disk tier that lets a fresh process warm-start.
//! [`Toolchain::cache_stats`] exposes per-stage hit/miss and per-tier
//! counters and [`Toolchain::stage_times`] cumulative per-stage execution
//! time.
//!
//! [`Session`]: crate::session::Session

pub use crate::cache::{
    ArtifactCache, ArtifactId, CacheConfig, CacheStats, StageKind, StageStats, StageTimes,
};
use asip_backend::trace::TraceConfig;
use asip_backend::{
    compile_module, compile_module_scalar, BackendOptions, BackendStats, CompiledProgram,
    CompiledScalarProgram,
};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::{optimize, InlineConfig, OptConfig, UnrollConfig};
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

/// Tag of the prepared-simulation keys, after the five [`StageKind`] tags.
const PREPARE_TAG: u8 = 5;

/// H(tag, fields): the shape of every stage key. `tag` is the stage (or
/// [`PREPARE_TAG`]), so equal fields under different stages never share a
/// key.
fn stage_key(tag: u8, fields: impl FnOnce(&mut Writer)) -> ArtifactId {
    let mut w = Writer::new();
    w.put_u8(tag);
    fields(&mut w);
    ArtifactId::of_bytes(&w.into_bytes())
}

/// Every [`OptConfig`] field, in declaration order. The exhaustive
/// patterns make a new field a compile error here rather than a key that
/// silently ignores it.
fn put_opt(w: &mut Writer, opt: &OptConfig) {
    let OptConfig {
        inline,
        inline_cfg,
        if_convert,
        licm,
        unroll,
        drop_dead_funcs,
        entry,
    } = opt;
    let InlineConfig {
        max_callee_insts,
        max_caller_insts,
        rounds,
    } = inline_cfg;
    let UnrollConfig {
        factor,
        max_loop_insts,
        innermost_only,
    } = unroll;
    w.put_bool(*inline);
    w.put_u64(*max_callee_insts as u64);
    w.put_u64(*max_caller_insts as u64);
    w.put_u32(*rounds);
    w.put_bool(*if_convert);
    w.put_bool(*licm);
    w.put_u32(*factor);
    w.put_u64(*max_loop_insts as u64);
    w.put_bool(*innermost_only);
    w.put_bool(*drop_dead_funcs);
    w.put_str(entry);
}

/// Every [`BackendOptions`] field, exhaustively like [`put_opt`].
fn put_backend(w: &mut Writer, backend: &BackendOptions) {
    let BackendOptions {
        superblocks,
        trace,
        max_spill_rounds,
    } = backend;
    let TraceConfig {
        max_trace_blocks,
        max_dup_ops,
        min_ratio,
    } = trace;
    w.put_bool(*superblocks);
    w.put_u64(*max_trace_blocks as u64);
    w.put_u64(*max_dup_ops as u64);
    w.put_f64(*min_ratio);
    w.put_u32(*max_spill_rounds);
}

/// The ID of a workload's inputs and arguments: the leaf every Profile
/// and Simulate key names its data by.
pub(crate) fn inputs_id(inputs: &[(String, Vec<i32>)], args: &[i32]) -> ArtifactId {
    let mut w = Writer::new();
    w.put_u32(inputs.len() as u32);
    for (name, data) in inputs {
        w.put_str(name);
        data.encode(&mut w);
    }
    w.put_u32(args.len() as u32);
    for &a in args {
        w.put_i32(a);
    }
    ArtifactId::of_bytes(&w.into_bytes())
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
    /// The target flavor this artifact was compiled for.
    pub(crate) fn target(&self) -> TargetKind {
        match self {
            CompiledArtifact::Vliw(_) => TargetKind::Vliw,
            CompiledArtifact::Scalar(_) => TargetKind::Scalar,
        }
    }

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
    /// cache configuration).
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

    /// The Parse key: H(source).
    fn key_parse(source: &str) -> ArtifactId {
        stage_key(StageKind::Parse as u8, |w| w.put_str(source))
    }

    /// The Optimize key: H([`OptConfig`], source).
    fn key_optimize(&self, source: &str) -> ArtifactId {
        stage_key(StageKind::Optimize as u8, |w| {
            put_opt(w, &self.opt);
            w.put_str(source);
        })
    }

    /// The Profile key: H(module, inputs).
    fn key_profile(module_id: ArtifactId, inputs_id: ArtifactId) -> ArtifactId {
        stage_key(StageKind::Profile as u8, |w| {
            module_id.encode(w);
            inputs_id.encode(w);
        })
    }

    /// The Compile key: H(flavor, module, machine, [`BackendOptions`],
    /// profile or none).
    fn key_compile(
        &self,
        flavor: TargetKind,
        module_id: ArtifactId,
        machine_id: ArtifactId,
        profile_id: Option<ArtifactId>,
    ) -> ArtifactId {
        stage_key(StageKind::Compile as u8, |w| {
            flavor.encode(w);
            module_id.encode(w);
            machine_id.encode(w);
            put_backend(w, &self.backend);
            profile_id.encode(w);
        })
    }

    /// The Simulate key: H(flavor, compiled, machine, `max_cycles`,
    /// inputs). The engine is deliberately absent (see the module docs).
    fn key_simulate(
        &self,
        flavor: TargetKind,
        compiled_id: ArtifactId,
        machine_id: ArtifactId,
        inputs_id: ArtifactId,
    ) -> ArtifactId {
        stage_key(StageKind::Simulate as u8, |w| {
            flavor.encode(w);
            compiled_id.encode(w);
            machine_id.encode(w);
            w.put_u64(self.sim.max_cycles);
            inputs_id.encode(w);
        })
    }

    /// The prepared-simulation key (see [`ArtifactCache::get_or_prepare`]):
    /// H(flavor, machine, compiled) — everything a preparation reads.
    fn key_prepare(
        flavor: TargetKind,
        machine_id: ArtifactId,
        compiled_id: ArtifactId,
    ) -> ArtifactId {
        stage_key(PREPARE_TAG, |w| {
            flavor.encode(w);
            machine_id.encode(w);
            compiled_id.encode(w);
        })
    }

    /// **Parse stage**: TinyC source → unoptimized IR module. Cached by
    /// source text.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn parse(&self, source: &str) -> Result<Module, ToolchainError> {
        let (module, _) =
            self.cache
                .get_or_compute(StageKind::Parse, Self::key_parse(source), |t| {
                    Ok(t.time(|| asip_tinyc::compile(source))?)
                })?;
        Ok(module)
    }

    /// **Parse + Optimize stages**: TinyC source → optimized IR module.
    /// The optimize stage is cached by (source, [`OptConfig`]).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn frontend(&self, source: &str) -> Result<Module, ToolchainError> {
        Ok(self.frontend_addressed(source)?.0)
    }

    /// [`Toolchain::frontend`], with the optimized module's ID.
    pub(crate) fn frontend_addressed(
        &self,
        source: &str,
    ) -> Result<(Module, ArtifactId), ToolchainError> {
        let key = self.key_optimize(source);
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
        let module = (module, ArtifactId::of(module));
        Ok(self
            .profile_addressed(module, inputs, args, inputs_id(inputs, args))?
            .0)
    }

    /// [`Toolchain::profile`] over an addressed module and inputs, with
    /// the profile's ID.
    pub(crate) fn profile_addressed(
        &self,
        (module, module_id): (&Module, ArtifactId),
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
        inputs_id: ArtifactId,
    ) -> Result<(Profile, ArtifactId), ToolchainError> {
        let key = Self::key_profile(module_id, inputs_id);
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

    /// Cached compile of one target flavor over addressed inputs, with the
    /// artifact's ID.
    pub(crate) fn compile_addressed(
        &self,
        flavor: TargetKind,
        (module, module_id): (&Module, ArtifactId),
        (machine, machine_id): (&MachineDescription, ArtifactId),
        profile: Option<(&Profile, ArtifactId)>,
    ) -> Result<(CompiledArtifact, ArtifactId), ToolchainError> {
        let key = self.key_compile(flavor, module_id, machine_id, profile.map(|p| p.1));
        let profile = profile.map(|p| p.0);
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

    /// Cached compile of one target flavor, hashing the arguments into the
    /// same key [`Toolchain::compile_addressed`] uses.
    fn compile_flavor(
        &self,
        flavor: TargetKind,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledArtifact, ToolchainError> {
        let (art, _) = self.compile_addressed(
            flavor,
            (module, ArtifactId::of(module)),
            (machine, ArtifactId::of(machine)),
            profile.map(|p| (p, ArtifactId::of(p))),
        )?;
        Ok(art)
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
        match self.compile_flavor(TargetKind::Vliw, module, machine, profile)? {
            CompiledArtifact::Vliw(p) => Ok(p),
            CompiledArtifact::Scalar(_) => unreachable!("vliw-flavored keys hold vliw artifacts"),
        }
    }

    /// Full stage graph for one workload on one machine, checking the
    /// golden output. Every stage is served from the artifact cache when
    /// possible.
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
        let (module, module_id) = self.frontend_addressed(&w.source)?;
        let inputs_id = inputs_id(&w.inputs, &w.args);
        let profile = if self.profile_guided {
            Some(self.profile_addressed((&module, module_id), &w.inputs, &w.args, inputs_id)?)
        } else {
            None
        };
        let machine = (machine, ArtifactId::of(machine));
        let (compiled, compiled_id) = self.compile_addressed(
            machine.0.target,
            (&module, module_id),
            machine,
            profile.as_ref().map(|(p, id)| (p, *id)),
        )?;
        self.simulate_addressed(w, machine, (&compiled, compiled_id), inputs_id)
    }

    /// One measurement on the configured [`SimEngine`]. The block engine
    /// runs from a prepared form served by the cache's process-local
    /// preparation map ([`CacheStats::decode`]), so repeated runs of the
    /// same artifact skip validation + block discovery; the reference
    /// interpreter prepares nothing by design.
    fn measure(
        &self,
        w: &Workload,
        (machine, machine_id): (&MachineDescription, ArtifactId),
        (compiled, compiled_id): (&CompiledArtifact, ArtifactId),
    ) -> Result<SimResult, ToolchainError> {
        let (inputs, args, opts) = (&w.inputs, &w.args, self.sim);
        let key = || Self::key_prepare(compiled.target(), machine_id, compiled_id);
        Ok(match (self.sim.engine, compiled) {
            (SimEngine::Reference, CompiledArtifact::Vliw(p)) => {
                run_vliw_reference(machine, &p.program, inputs, args, opts)?
            }
            (SimEngine::Reference, CompiledArtifact::Scalar(p)) => {
                run_scalar_reference(machine, &p.program, inputs, args, opts)?
            }
            (SimEngine::Block, CompiledArtifact::Vliw(p)) => self
                .cache
                .get_or_prepare(key(), || Ok(BlockVliw::new(machine, &p.program)?))?
                .run_with_inputs(inputs, args, opts)?,
            (SimEngine::Block, CompiledArtifact::Scalar(p)) => self
                .cache
                .get_or_prepare(key(), || Ok(BlockScalar::new(machine, &p.program)?))?
                .run_with_inputs(inputs, args, opts)?,
        })
    }

    /// **Simulate stage** over addressed inputs: memoized measurement,
    /// then the golden-output check (on hits too).
    pub(crate) fn simulate_addressed(
        &self,
        w: &Workload,
        machine: (&MachineDescription, ArtifactId),
        compiled: (&CompiledArtifact, ArtifactId),
        inputs_id: ArtifactId,
    ) -> Result<WorkloadRun, ToolchainError> {
        let key = self.key_simulate(compiled.0.target(), compiled.1, machine.1, inputs_id);
        let (result, _) = self.cache.get_or_compute(StageKind::Simulate, key, |t| {
            let result = t.time(|| self.measure(w, machine, compiled))?;
            self.cache.record_sim_cycles(result.cycles);
            Ok(result)
        })?;
        let (machine, compiled) = (machine.0, compiled.0);
        if result.output != w.expected {
            return Err(ToolchainError::WrongOutput {
                workload: w.name.clone(),
                machine: machine.name.clone(),
                expected: w.expected.clone(),
                actual: result.output.clone(),
            });
        }
        Ok(WorkloadRun {
            workload: w.name.clone(),
            machine: machine.name.clone(),
            sim: result,
            compile: compiled.stats(),
            code_bytes: compiled.code_bytes(machine),
        })
    }

    /// **Simulate stage**: run an already-compiled VLIW workload (used by
    /// sweeps that vary only the simulation conditions). Memoized like
    /// [`Toolchain::run_artifact`], under the same key.
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
        self.run_artifact(w, machine, &CompiledArtifact::Vliw(compiled.clone()))
    }

    /// **Simulate stage** for either artifact kind: dispatches to the VLIW
    /// or the scalar pipeline model. **Memoized** like every other stage:
    /// the engines are deterministic functions of the key's inputs, so a
    /// repeated identical cell across ISE/DSE sweeps — or a disk-warm
    /// rerun — skips the cycle loop entirely and returns a byte-identical
    /// [`SimResult`]. Errors are never cached.
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
        self.simulate_addressed(
            w,
            (machine, ArtifactId::of(machine)),
            (compiled, ArtifactId::of(compiled)),
            inputs_id(&w.inputs, &w.args),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inputs of every stage key of one cell. Artifact IDs the keys
    /// name (module, compiled program) are fixed stand-ins: varying them is
    /// the leaf-hash tests' business, not the key scheme's.
    #[derive(Clone)]
    struct Cell {
        tc: Toolchain,
        source: String,
        machine: MachineDescription,
        inputs: Vec<(String, Vec<i32>)>,
        args: Vec<i32>,
        profile: Option<ArtifactId>,
        flavor: TargetKind,
    }

    const STAGES: [&str; 6] = [
        "parse", "optimize", "profile", "compile", "simulate", "prepare",
    ];

    impl Cell {
        fn keys(&self) -> [ArtifactId; 6] {
            let module = ArtifactId::of_bytes(b"module");
            let compiled = ArtifactId::of_bytes(b"compiled");
            let machine = ArtifactId::of(&self.machine);
            let inputs = inputs_id(&self.inputs, &self.args);
            [
                Toolchain::key_parse(&self.source),
                self.tc.key_optimize(&self.source),
                Toolchain::key_profile(module, inputs),
                self.tc
                    .key_compile(self.flavor, module, machine, self.profile),
                self.tc.key_simulate(self.flavor, compiled, machine, inputs),
                Toolchain::key_prepare(self.flavor, machine, compiled),
            ]
        }
    }

    #[test]
    fn changing_any_stage_input_changes_exactly_its_keys() {
        let w = asip_workloads::by_name("fir").unwrap();
        let base = Cell {
            tc: Toolchain::default(),
            source: w.source.clone(),
            machine: MachineDescription::ember4(),
            inputs: w.inputs.clone(),
            args: w.args.clone(),
            profile: Some(ArtifactId::of_bytes(b"profile")),
            flavor: TargetKind::Vliw,
        };
        assert!(!base.inputs.is_empty() && !base.inputs[0].1.is_empty());
        let changed = |vary: &dyn Fn(&mut Cell)| -> Vec<&str> {
            let mut cell = base.clone();
            vary(&mut cell);
            let (a, b) = (base.keys(), cell.keys());
            (0..STAGES.len())
                .filter(|&i| a[i] != b[i])
                .map(|i| STAGES[i])
                .collect()
        };
        let front: &[&str] = &["parse", "optimize"];
        let data: &[&str] = &["profile", "simulate"];
        let target: &[&str] = &["compile", "simulate", "prepare"];
        let last_byte = |c: &mut Cell| {
            let last = c.source.pop().unwrap();
            c.source.push(if last == ' ' { '\t' } else { ' ' });
        };
        assert_eq!(changed(&last_byte), front);
        assert_eq!(changed(&|c| c.tc.opt.licm = !c.tc.opt.licm), ["optimize"]);
        assert_eq!(changed(&|c| c.tc.opt.unroll.factor += 1), ["optimize"]);
        assert_eq!(changed(&|c| c.tc.opt.inline_cfg.rounds += 1), ["optimize"]);
        assert_eq!(changed(&|c| c.machine.lat_mul += 1), target);
        assert_eq!(changed(&|c| c.machine.dmem_words -= 1), target);
        assert_eq!(
            changed(&|c| c.tc.backend.max_spill_rounds += 1),
            ["compile"]
        );
        assert_eq!(
            changed(&|c| c.tc.backend.trace.min_ratio += 0.1),
            ["compile"]
        );
        assert_eq!(changed(&|c| c.profile = None), ["compile"]);
        assert_eq!(changed(&|c| c.tc.sim.max_cycles += 1), ["simulate"]);
        assert_eq!(changed(&|c| c.inputs[0].1[0] ^= 1), data);
        assert_eq!(changed(&|c| c.args.push(0)), data);
        assert_eq!(changed(&|c| c.flavor = TargetKind::Scalar), target);
        // The engine is not an input of any key.
        for engine in [SimEngine::Reference, SimEngine::Block] {
            assert_eq!(changed(&|c| c.tc.sim.engine = engine), [""; 0]);
        }
    }

    #[test]
    fn golden_stage_keys_pin_the_key_layout() {
        // Disk entries are named by stage keys: a layout change here must
        // come with a `FORMAT_VERSION` bump.
        let src = "void main(int a) { emit(a); }";
        assert_eq!(
            Toolchain::key_parse(src).to_string(),
            "1efb2f310dfd67ac1185fcac7045dd85"
        );
        assert_eq!(
            Toolchain::default().key_optimize(src).to_string(),
            "165cc88fafece1065ebbd12b5f37797f"
        );
    }

    #[test]
    fn public_stage_calls_hit_what_run_workload_stored() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let run = tc.run_workload(&w, &m).unwrap();
        let cold = tc.cache_stats();
        tc.parse(&w.source).unwrap();
        let module = tc.frontend(&w.source).unwrap();
        let profile = tc.profile(&module, &w.inputs, &w.args).unwrap();
        let compiled = tc.compile_for(&module, &m, Some(&profile)).unwrap();
        assert_eq!(tc.run_artifact(&w, &m, &compiled).unwrap(), run);
        let vliw = compiled.vliw().unwrap();
        assert_eq!(tc.run_compiled(&w, &m, vliw).unwrap(), run);
        assert_eq!(&tc.compile(&module, &m, Some(&profile)).unwrap(), vliw);
        let warm = tc.cache_stats();
        assert_eq!(warm.misses(), cold.misses(), "{warm}");
        assert_eq!(warm.hits(), cold.hits() + 7, "{warm}");
    }

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
