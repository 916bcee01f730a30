//! The builder-configured [`Session`]: one object that owns the artifact
//! cache and a worker pool, and evaluates any batch of (workload × machine)
//! cells through the unified [`Session::eval_batch`] API.
//!
//! This is the paper's §3.1 "single family view" made operational: the N×M
//! grid ([`crate::nxm`]), design-space exploration ([`crate::dse`]) and ISE
//! budget sweeps ([`crate::ise::sweep_budgets`]) are all thin layers over
//! the same batched evaluation service, so every search loop shares one
//! tiered [`ArtifactCache`] (LRU-bounded memory, plus a persistent disk
//! tier via [`SessionBuilder::cache_dir`] / `ASIP_CACHE_DIR` for
//! cross-process warm starts) and one parallelism policy.
//!
//! # Quickstart
//!
//! ```
//! use asip_core::session::{EvalRequest, Session};
//! use asip_isa::MachineDescription;
//!
//! let session = Session::builder().threads(2).build();
//! let fir = asip_workloads::by_name("fir").unwrap();
//! let reqs = vec![
//!     EvalRequest::new(fir.clone(), MachineDescription::ember1()),
//!     EvalRequest::new(fir, MachineDescription::ember4()),
//! ];
//! let outcomes = session.eval_batch(&reqs);
//! // Results come back in request order, golden-checked.
//! assert!(outcomes.iter().all(|o| o.cycles().is_some()));
//! ```
//!
//! # Determinism
//!
//! `eval_batch` executes cells on scoped worker threads pulling from a
//! shared cursor, and writes each outcome into its request's slot: the
//! result vector is **request-ordered and byte-identical regardless of
//! thread count**. Artifacts are deterministic functions of their rendered
//! inputs and round-trip the cache's versioned binary codec exactly, so
//! cache hits (from either tier), racing recomputes, LRU evictions and
//! disk warm starts can never change a measurement — only the
//! [`CacheStats`] counters.

use crate::cache::{
    default_cache_bytes, default_cache_dir, ArtifactCache, CacheConfig, CacheStats, DiskTierConfig,
    StageTimes, DEFAULT_DISK_CACHE_BYTES,
};
use crate::flight::SingleFlight;
use crate::ise::{extend, IseConfig, IseReport};
use crate::pipeline::{Toolchain, ToolchainError, WorkloadRun};
use asip_backend::BackendOptions;
use asip_ir::passes::OptConfig;
use asip_isa::{FuKind, MachineDescription};
use asip_sim::{SimEngine, SimOptions};
use asip_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Full wall time of every [`Session::eval`] call, cache hits included.
static CELL_EVAL_NS: asip_obs::Histogram = asip_obs::Histogram::new("cell.eval_ns");

/// Environment variable overriding the default worker-thread count.
///
/// The builder is the single source of truth for parallelism: an explicit
/// [`SessionBuilder::threads`] call always wins. This variable only feeds
/// the builder's *default* (via [`default_threads`]) and is read nowhere
/// else in the workspace; precedence is pinned by the `session_env`
/// integration test.
pub const THREADS_ENV: &str = "ASIP_GRID_THREADS";

/// Environment variable overriding the default simulation engine.
///
/// Accepts `reference` or `block` (case-insensitive); any other value —
/// the former `decoded` and `superblock` names included — is ignored.
/// Precedence mirrors [`THREADS_ENV`]: an explicit
/// [`SessionBuilder::sim_engine`] call always wins, this variable feeds
/// the builder's *default* (via [`default_engine`]), and with neither
/// the engine is [`SimEngine::default`] (the block compiler). The engine
/// can never change a measurement — both produce bit-identical
/// `SimResult`s (pinned by the differential suites) — so Simulate cache
/// keys deliberately exclude it.
pub const ENGINE_ENV: &str = "ASIP_SIM_ENGINE";

fn engine_from_env() -> Option<SimEngine> {
    std::env::var(ENGINE_ENV)
        .ok()
        .and_then(|v| SimEngine::parse(&v))
}

/// Default simulation engine: the `ASIP_SIM_ENGINE` environment variable
/// if set (and parseable), else [`SimEngine::default`].
pub fn default_engine() -> SimEngine {
    engine_from_env().unwrap_or_default()
}

/// Default worker count: the `ASIP_GRID_THREADS` environment variable if
/// set (and a positive integer), else one per available hardware thread.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Configures and builds a [`Session`]. Obtain one with
/// [`Session::builder`]; every knob has a sensible default.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    opt: OptConfig,
    backend: BackendOptions,
    sim: SimOptions,
    profile_guided: Option<bool>,
    cache_bytes: Option<u64>,
    cache_dir: Option<std::path::PathBuf>,
    disk_cache_bytes: Option<u64>,
    cache: Option<Arc<ArtifactCache>>,
    threads: Option<usize>,
    engine: Option<SimEngine>,
    trace: Option<std::path::PathBuf>,
}

impl SessionBuilder {
    /// Set the optimization pipeline configuration.
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Set the backend configuration.
    pub fn backend(mut self, backend: BackendOptions) -> Self {
        self.backend = backend;
        self
    }

    /// Set the simulation limits applied to every evaluation.
    pub fn sim(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// Set the simulation engine serving every evaluation. Defaults to
    /// the `ASIP_SIM_ENGINE` environment variable, or the block compiler
    /// ([`SimEngine::Block`]). Engines differ only in speed: results are
    /// bit-identical, and Simulate cache keys exclude the engine.
    pub fn sim_engine(mut self, engine: SimEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Enable or disable profile-guided superblock formation (default on).
    pub fn profile_guided(mut self, on: bool) -> Self {
        self.profile_guided = Some(on);
        self
    }

    /// Bound the artifact cache to `bytes` resident bytes (LRU eviction
    /// beyond it). Defaults to the `ASIP_CACHE_BYTES` environment variable,
    /// or 256 MiB. `0` disables artifact retention entirely.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Attach a **persistent disk tier** at `dir`: cached artifacts
    /// survive the process, so the next session pointed at the same
    /// directory skips Parse/Optimize/Profile/Compile for everything it
    /// has seen before.
    ///
    /// Precedence: an explicit call here always wins; otherwise the
    /// `ASIP_CACHE_DIR` environment variable supplies the directory; with
    /// neither, no disk tier is attached.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bound the disk tier to `bytes` of entry files (oldest evicted
    /// first). Default [`DEFAULT_DISK_CACHE_BYTES`]. Only meaningful when
    /// a disk tier is attached.
    pub fn disk_cache_bytes(mut self, bytes: u64) -> Self {
        self.disk_cache_bytes = Some(bytes);
        self
    }

    /// Attach a pre-built cache (shared with other sessions or configured
    /// through [`CacheConfig`]); overrides
    /// [`SessionBuilder::cache_bytes`], [`SessionBuilder::cache_dir`] and
    /// [`SessionBuilder::disk_cache_bytes`].
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Set the worker-pool width for [`Session::eval_batch`]. Defaults to
    /// the `ASIP_GRID_THREADS` environment variable, or one worker per
    /// available hardware thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Record span traces for this session's process and write them to
    /// `path` (Chrome trace-event JSON) when the harness flushes
    /// (`asip_obs::flush_trace`, or `asip_bench::finish` in the bench
    /// bins).
    ///
    /// Precedence mirrors every other knob: an explicit call here always
    /// wins; otherwise the `ASIP_TRACE` environment variable supplies the
    /// path; with neither, span recording stays off (its disabled cost is
    /// one atomic load per site).
    pub fn trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Preset: all optimizations off (baseline for ablation studies).
    pub fn unoptimized(mut self) -> Self {
        self.opt = OptConfig::none();
        self.backend = BackendOptions {
            superblocks: false,
            ..Default::default()
        };
        self.profile_guided = Some(false);
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        // Builder wins over environment, like every other knob. The
        // process-global recorder is configured here because sessions are
        // the entry point of every evaluation path (bench bins, the serve
        // workers, tests).
        match self.trace {
            Some(path) => asip_obs::set_trace_path(Some(path)),
            None => asip_obs::init_from_env(),
        }
        let cache = self.cache.unwrap_or_else(|| {
            // Builder wins over environment; environment wins over
            // default-off (pinned by the `session_env` integration tests).
            let disk = self
                .cache_dir
                .or_else(default_cache_dir)
                .map(|dir| DiskTierConfig {
                    dir,
                    byte_budget: self.disk_cache_bytes.unwrap_or(DEFAULT_DISK_CACHE_BYTES),
                    max_age_secs: None,
                });
            Arc::new(ArtifactCache::with_config(CacheConfig {
                byte_budget: self.cache_bytes.unwrap_or_else(default_cache_bytes),
                hash_mask: !0,
                disk,
            }))
        });
        let mut tc = Toolchain::default().with_cache(cache);
        tc.opt = self.opt;
        tc.backend = self.backend;
        tc.profile_guided = self.profile_guided.unwrap_or(true);
        tc.sim = self.sim;
        // Builder wins over environment; environment wins over whatever
        // the sim options carried (normally the engine default). Pinned
        // by the `session_env` integration tests.
        tc.sim.engine = self
            .engine
            .or_else(engine_from_env)
            .unwrap_or(tc.sim.engine);
        Session {
            tc,
            threads: self.threads.unwrap_or_else(default_threads),
            flights: Arc::new(SingleFlight::new()),
        }
    }
}

/// Per-request evaluation options.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalOptions {
    /// ISE area budget in adder-equivalents. When positive and the machine
    /// hosts a `Custom` slot, the module is extended with automatically
    /// selected custom operations before compilation (see [`crate::ise`]),
    /// and the outcome's [`EvalRun::machine`] carries the extended
    /// description. `0.0` (the default) evaluates the machine as given.
    pub ise_budget: f64,
}

/// One cell of work: run `workload` on `machine` under `options`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// The workload to compile and simulate.
    pub workload: Workload,
    /// The family member to target.
    pub machine: MachineDescription,
    /// Per-request options.
    pub options: EvalOptions,
}

impl EvalRequest {
    /// A request with default options.
    pub fn new(workload: Workload, machine: MachineDescription) -> EvalRequest {
        EvalRequest {
            workload,
            machine,
            options: EvalOptions::default(),
        }
    }

    /// This request with an ISE area budget (see [`EvalOptions::ise_budget`]).
    pub fn with_ise(mut self, area_budget: f64) -> EvalRequest {
        self.options.ise_budget = area_budget;
        self
    }

    /// The full machine-major (row-major) cross product: one default
    /// request per (machine, workload) cell, machines outermost — the
    /// layout [`Grid`](crate::nxm::Grid) and the batch consumers expect.
    pub fn grid(machines: &[MachineDescription], workloads: &[Workload]) -> Vec<EvalRequest> {
        machines
            .iter()
            .flat_map(|m| {
                workloads
                    .iter()
                    .map(move |w| EvalRequest::new(w.clone(), m.clone()))
            })
            .collect()
    }
}

/// The successful payload of an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRun {
    /// The golden-checked run (cycles, stalls, energy activity, code size).
    pub run: WorkloadRun,
    /// The machine actually evaluated: the request's machine, ISE-extended
    /// when [`EvalOptions::ise_budget`] asked for it.
    pub machine: MachineDescription,
    /// The ISE selection report, when an extension was requested.
    pub ise: Option<IseReport>,
}

/// Result of one [`EvalRequest`]: names for reporting plus the typed
/// outcome ([`EvalRun`] or [`ToolchainError`] — never a stringly error).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Workload name (from the request).
    pub workload: String,
    /// Base machine name (from the request).
    pub machine: String,
    /// The evaluation result.
    pub result: Result<EvalRun, ToolchainError>,
}

impl EvalOutcome {
    /// Simulated cycles, when the evaluation succeeded.
    pub fn cycles(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|r| r.run.sim.cycles)
    }

    /// Whether the evaluation succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// A builder-configured toolchain session: owns the [`ArtifactCache`] and
/// a worker pool, and evaluates batches of (workload × machine) cells.
///
/// Cloning is cheap and shares the cache (like [`Toolchain`] clones);
/// [`Session::with_threads`] and [`Session::fresh_cache`] derive variants.
#[derive(Debug, Clone)]
pub struct Session {
    tc: Toolchain,
    threads: usize,
    flights: Arc<SingleFlight<EvalOutcome>>,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Wrap an existing engine, keeping its cache ([`default_threads`]
    /// workers).
    pub fn from_toolchain(tc: Toolchain) -> Session {
        Session {
            tc,
            threads: default_threads(),
            flights: Arc::new(SingleFlight::new()),
        }
    }

    /// The underlying stage engine (shared cache).
    pub fn toolchain(&self) -> &Toolchain {
        &self.tc
    }

    /// Worker-pool width used by [`Session::eval_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This session with a different worker-pool width (shared cache).
    pub fn with_threads(&self, threads: usize) -> Session {
        Session {
            tc: self.tc.clone(),
            threads: threads.max(1),
            flights: Arc::clone(&self.flights),
        }
    }

    /// This session with a new, empty, unshared cache (same configuration).
    /// The single-flight map is fresh too: coalesced results always come
    /// from this session's own cache.
    pub fn fresh_cache(&self) -> Session {
        Session {
            tc: self.tc.fresh_cache(),
            threads: self.threads,
            flights: Arc::new(SingleFlight::new()),
        }
    }

    /// The session's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        self.tc.cache()
    }

    /// Cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.tc.cache_stats()
    }

    /// Cumulative per-stage execution times.
    pub fn stage_times(&self) -> StageTimes {
        self.tc.stage_times()
    }

    /// Convenience: run one workload on one machine with default options
    /// (see [`Toolchain::run_workload`]).
    ///
    /// # Errors
    ///
    /// Any [`ToolchainError`].
    pub fn run_workload(
        &self,
        w: &Workload,
        machine: &MachineDescription,
    ) -> Result<WorkloadRun, ToolchainError> {
        self.tc.run_workload(w, machine)
    }

    /// Evaluate one request on the calling thread.
    pub fn eval(&self, req: &EvalRequest) -> EvalOutcome {
        let start = std::time::Instant::now();
        let mut span = asip_obs::span("cell", "eval");
        if span.is_recording() {
            span.detail(format!(
                "{}@{} engine={}",
                req.workload.name,
                req.machine.name,
                self.tc.sim.engine.name()
            ));
        }
        let out = EvalOutcome {
            workload: req.workload.name.clone(),
            machine: req.machine.name.clone(),
            result: self.eval_inner(req),
        };
        span.note(if out.is_ok() { "ok" } else { "err" });
        drop(span);
        CELL_EVAL_NS.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Evaluate one request, **coalescing** with any identical request
    /// currently in flight on this session (or its `with_threads`/`clone`
    /// derivatives): one caller computes, concurrent duplicates block and
    /// clone the result. Returns the outcome plus whether this call *led*
    /// the computation — the evaluation server uses the flag for
    /// per-client attribution. Keyed by the codec-rendered request, so
    /// coalescing can never conflate distinct cells.
    ///
    /// Unlike the artifact cache this dedups only *concurrent* work:
    /// sequential repeats recompute (and are then served by the cache), so
    /// plain [`Session::eval`]/[`Session::eval_batch`] counters are
    /// unaffected by this path existing.
    pub fn eval_coalesced(&self, req: &EvalRequest) -> (EvalOutcome, bool) {
        use asip_isa::codec::Codec;
        self.flights.run(req.encode_to_vec(), || self.eval(req))
    }

    fn eval_inner(&self, req: &EvalRequest) -> Result<EvalRun, ToolchainError> {
        let tc = &self.tc;
        let w = &req.workload;
        let mut module = tc.frontend(&w.source)?;
        let wants_ise = req.options.ise_budget > 0.0 && req.machine.has_fu(FuKind::Custom);
        // ISE selection needs a profile even when compilation is not
        // profile-guided.
        let profile = if tc.profile_guided || wants_ise {
            Some(tc.profile(&module, &w.inputs, &w.args)?)
        } else {
            None
        };
        let (machine, ise) = if wants_ise {
            let cfg = IseConfig {
                area_budget: req.options.ise_budget,
                ..Default::default()
            };
            let (m2, report) = extend(
                &mut module,
                &req.machine,
                profile.as_ref().expect("profiled for ISE"),
                &cfg,
            );
            (m2, Some(report))
        } else {
            (req.machine.clone(), None)
        };
        let guided = if tc.profile_guided {
            profile.as_ref()
        } else {
            None
        };
        let compiled = tc.compile_for(&module, &machine, guided)?;
        let run = tc.run_artifact(w, &machine, &compiled)?;
        Ok(EvalRun { run, machine, ise })
    }

    /// Evaluate a batch of cells on the worker pool.
    ///
    /// Workers pull requests from a shared cursor (long cells never leave
    /// threads idle) and write outcomes into their request's slot: the
    /// returned vector is request-ordered and identical for any thread
    /// count. The pool is `min(threads, requests)` scoped threads.
    pub fn eval_batch(&self, reqs: &[EvalRequest]) -> Vec<EvalOutcome> {
        let n = reqs.len();
        let threads = self.threads.min(n).max(1);
        if threads <= 1 {
            return reqs.iter().map(|r| self.eval(r)).collect();
        }
        let slots: Mutex<Vec<Option<EvalOutcome>>> = Mutex::new(vec![None; n]);
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = self.eval(&reqs[i]);
                    slots.lock().unwrap()[i] = Some(outcome);
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|o| o.expect("every batch slot is filled by a worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sensible() {
        let s = Session::builder().build();
        assert!(s.threads() >= 1);
        assert!(s.toolchain().profile_guided);
        assert_eq!(s.cache().byte_budget(), default_cache_bytes());
    }

    #[test]
    fn builder_overrides_stick() {
        let s = Session::builder()
            .threads(3)
            .cache_bytes(4096)
            .profile_guided(false)
            .build();
        assert_eq!(s.threads(), 3);
        assert_eq!(s.cache().byte_budget(), 4096);
        assert!(!s.toolchain().profile_guided);
        // threads(0) clamps to 1.
        assert_eq!(Session::builder().threads(0).build().threads(), 1);
    }

    #[test]
    fn eval_batch_returns_request_order() {
        let s = Session::builder().threads(4).build();
        let fir = asip_workloads::by_name("fir").unwrap();
        let crc = asip_workloads::by_name("crc32").unwrap();
        let reqs = vec![
            EvalRequest::new(fir.clone(), MachineDescription::ember4()),
            EvalRequest::new(crc.clone(), MachineDescription::ember1()),
            EvalRequest::new(fir, MachineDescription::ember1()),
            EvalRequest::new(crc, MachineDescription::ember4()),
        ];
        let out = s.eval_batch(&reqs);
        assert_eq!(out.len(), 4);
        for (o, r) in out.iter().zip(&reqs) {
            assert_eq!(o.workload, r.workload.name);
            assert_eq!(o.machine, r.machine.name);
            assert!(o.is_ok(), "{:?}", o.result);
        }
    }

    #[test]
    fn eval_reports_typed_errors() {
        let s = Session::builder().build();
        let mut w = asip_workloads::by_name("rle").unwrap();
        w.expected = vec![-1]; // sabotage the golden stream
        let out = s.eval(&EvalRequest::new(w, MachineDescription::ember2()));
        assert!(matches!(
            out.result,
            Err(ToolchainError::WrongOutput { .. })
        ));
        assert_eq!(out.cycles(), None);
    }

    #[test]
    fn ise_budget_extends_machine_in_outcome() {
        let s = Session::builder().build();
        let w = asip_workloads::by_name("yuv2rgb").unwrap();
        let base = MachineDescription::ember1();
        let out = s.eval(&EvalRequest::new(w, base.clone()).with_ise(32.0));
        let run = out.result.expect("ISE eval runs");
        let report = run.ise.expect("ISE report present");
        assert!(!report.selected.is_empty());
        assert!(run.machine.custom_ops.len() > base.custom_ops.len());
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = Session::builder().build();
        assert!(s.eval_batch(&[]).is_empty());
    }
}
