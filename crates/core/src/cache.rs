//! The tiered, memoized artifact store behind every
//! [`Toolchain`](crate::pipeline::Toolchain) and
//! [`Session`](crate::session::Session).
//!
//! # Tiers behind one abstraction
//!
//! The cache is a stack of [`CacheStore`] tiers, probed hottest-first:
//!
//! * **Tier 0 — memory** ([`MemoryStore`]): the LRU byte-budgeted in-process
//!   store ([`CacheConfig::byte_budget`], default [`DEFAULT_CACHE_BYTES`],
//!   `ASIP_CACHE_BYTES`).
//! * **Tier 1 — disk** ([`DiskStore`], optional): a persistent directory
//!   ([`SessionBuilder::cache_dir`](crate::session::SessionBuilder::cache_dir)
//!   or `ASIP_CACHE_DIR`) that survives the process, so a new session
//!   warm-starts the whole Parse→Optimize→Profile→Compile front half.
//!
//! Lookups **read through**: a miss in tier 0 falls to tier 1, and a hit
//! there is promoted back into tier 0. Computed artifacts **write through**
//! to every tier. Each tier reports its own [`TierStats`] (hits, loads,
//! stale drops, evictions) inside [`CacheStats`]. Custom tier stacks plug
//! in via [`ArtifactCache::with_tiers`].
//!
//! # Hashed keys, exact hits
//!
//! Stage artifacts are keyed by the *complete rendered inputs* of the stage
//! (source text, machine description, profile fingerprint, …). The memory
//! tier indexes entries by a 64-bit FNV-1a hash and keeps the full key
//! alongside each entry: a lookup first matches the hash, then verifies the
//! stored key byte-for-byte, so a hash collision degrades to a bucket scan
//! — never to a wrong artifact. (Tests can force the degenerate all-collide
//! case through [`CacheConfig::hash_mask`].) The disk tier stores each
//! entry with a self-describing header (magic, [`FORMAT_VERSION`], stage
//! kind, **full key**, payload checksum) and re-verifies all of it on load,
//! so a filename collision, a stale format or plain file corruption
//! silently degrades to a recompute — never to a wrong artifact.
//!
//! # Artifacts travel as versioned bytes
//!
//! Every cached artifact kind (IR modules, profiles, compiled VLIW/scalar
//! programs) implements the hand-rolled binary [`Codec`]
//! ([`asip_isa::codec`]); `decode(encode(x)) == x` exactly, so disk-warm,
//! memory-warm and cold evaluations produce byte-identical results — only
//! the counters in [`CacheStats`] can tell them apart.

pub mod disk;
mod entry;
pub mod mem;

pub use disk::DiskStore;
pub use entry::FORMAT_VERSION;
pub use mem::MemoryStore;

use crate::pipeline::ToolchainError;
use asip_isa::codec::Codec;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default memory-tier byte budget (256 MiB) when neither
/// [`CacheConfig::byte_budget`] nor `ASIP_CACHE_BYTES` says otherwise.
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// Default disk-tier byte budget (1 GiB) when [`DiskTierConfig`] does not
/// say otherwise.
pub const DEFAULT_DISK_CACHE_BYTES: u64 = 1024 * 1024 * 1024;

/// Environment variable overriding the default memory-tier byte budget.
pub const CACHE_BYTES_ENV: &str = "ASIP_CACHE_BYTES";

/// Environment variable naming the persistent cache directory. Unset (or
/// empty) means no disk tier; an explicit
/// [`SessionBuilder::cache_dir`](crate::session::SessionBuilder::cache_dir)
/// always wins over this variable.
pub const CACHE_DIR_ENV: &str = "ASIP_CACHE_DIR";

/// The byte budget a fresh cache uses: `ASIP_CACHE_BYTES` if set to a
/// parseable `u64`, else [`DEFAULT_CACHE_BYTES`].
pub fn default_cache_bytes() -> u64 {
    std::env::var(CACHE_BYTES_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_CACHE_BYTES)
}

/// The default persistent cache directory: `ASIP_CACHE_DIR` when set and
/// non-empty, else `None` (no disk tier).
pub fn default_cache_dir() -> Option<PathBuf> {
    std::env::var_os(CACHE_DIR_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Configuration of the persistent disk tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskTierConfig {
    /// Directory holding the cache (created on demand; one subdirectory
    /// per cacheable stage).
    pub dir: PathBuf,
    /// Maximum total entry-file bytes before age-ordered eviction (oldest
    /// entries deleted first). Default [`DEFAULT_DISK_CACHE_BYTES`].
    pub byte_budget: u64,
    /// Entries older than this many seconds are purged when the store is
    /// opened. `None` (the default) keeps entries until size eviction.
    pub max_age_secs: Option<u64>,
}

impl DiskTierConfig {
    /// A disk tier at `dir` with the default budget and no age limit.
    pub fn new(dir: impl Into<PathBuf>) -> DiskTierConfig {
        DiskTierConfig {
            dir: dir.into(),
            byte_budget: DEFAULT_DISK_CACHE_BYTES,
            max_age_secs: None,
        }
    }
}

/// Cache construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Maximum resident artifact bytes in the memory tier before LRU
    /// eviction kicks in.
    pub byte_budget: u64,
    /// Mask applied to the memory tier's 64-bit key hash. `!0` (the
    /// default) keeps the full hash; tests set narrower masks (down to `0`)
    /// to force bucket collisions and exercise the stored-key fallback
    /// path.
    pub hash_mask: u64,
    /// Optional persistent disk tier. `None` by default: only
    /// [`Session::builder`](crate::session::Session::builder) consults
    /// `ASIP_CACHE_DIR` (via [`default_cache_dir`]), so bare
    /// `ArtifactCache`/`Toolchain` construction stays hermetic — unit
    /// tests and scratch toolchains never touch (or clear!) a persistent
    /// directory they were not explicitly pointed at.
    pub disk: Option<DiskTierConfig>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: default_cache_bytes(),
            hash_mask: !0,
            disk: None,
        }
    }
}

/// The stages of the pipeline graph, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// TinyC source → unoptimized IR module.
    Parse = 0,
    /// IR module → optimized IR module.
    Optimize = 1,
    /// Optimized module + inputs → block-frequency profile.
    Profile = 2,
    /// Module + machine (+ profile) → compiled program.
    Compile = 3,
    /// Compiled program + machine → simulation result, golden-checked.
    Simulate = 4,
}

impl StageKind {
    /// Every stage, in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Parse,
        StageKind::Optimize,
        StageKind::Profile,
        StageKind::Compile,
        StageKind::Simulate,
    ];

    /// The cacheable stages. Since the Simulate stage became memoized
    /// (engines are deterministic and keys cover artifact + options +
    /// inputs), this is every stage; kept distinct from [`StageKind::ALL`]
    /// for readability at call sites that mean "what the cache stores".
    pub const CACHEABLE: [StageKind; 5] = [
        StageKind::Parse,
        StageKind::Optimize,
        StageKind::Profile,
        StageKind::Compile,
        StageKind::Simulate,
    ];

    /// The front half of the pipeline: everything up to (but excluding)
    /// the Simulate measurement stage.
    pub const FRONT_HALF: [StageKind; 4] = [
        StageKind::Parse,
        StageKind::Optimize,
        StageKind::Profile,
        StageKind::Compile,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Parse => "parse",
            StageKind::Optimize => "optimize",
            StageKind::Profile => "profile",
            StageKind::Compile => "compile",
            StageKind::Simulate => "simulate",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hit/miss counters for one cacheable stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Artifact served from some cache tier.
    pub hits: u64,
    /// Artifact computed (and written through to every tier).
    pub misses: u64,
}

/// Counters for one cache tier (see [`CacheStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups that returned a verified artifact from this tier.
    pub hits: u64,
    /// Lookup attempts reaching this tier (hits + misses + stale drops).
    pub loads: u64,
    /// Payloads written into this tier (write-through and promotions).
    pub stores: u64,
    /// Entries dropped because they failed verification: truncation,
    /// corruption, format-version or key mismatch, undecodable payload.
    /// Every one degrades silently to a recompute.
    pub stale_drops: u64,
    /// Entries evicted by the tier's retention policy (LRU bytes in
    /// memory, age+size on disk; non-admitted oversized entries count
    /// here too).
    pub evictions: u64,
    /// Orphaned temporary files reclaimed at open: `.tmp-*` leftovers of
    /// writers that crashed between write and rename. Always zero for
    /// tiers without a staging area (memory). A crash-looped fleet that
    /// kept leaking these would otherwise fill the disk silently.
    pub tmp_reclaimed: u64,
    /// Estimated bytes currently held by this tier.
    pub resident_bytes: u64,
    /// Entries currently held by this tier.
    pub entries: u64,
}

impl fmt::Display for TierStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits/{} loads, {} stale, {} evictions, {} KiB in {} entries",
            self.hits,
            self.loads,
            self.stale_drops,
            self.evictions,
            self.resident_bytes / 1024,
            self.entries,
        )?;
        if self.tmp_reclaimed > 0 {
            write!(f, ", {} tmp reclaimed", self.tmp_reclaimed)?;
        }
        Ok(())
    }
}

/// Snapshot of cache behavior (see [`crate::pipeline::Toolchain::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Source → unoptimized module.
    pub parse: StageStats,
    /// (source, opt config) → optimized module.
    pub optimize: StageStats,
    /// (module, inputs, args) → profile.
    pub profile: StageStats,
    /// (module, machine, backend, profile) → compiled program.
    pub compile: StageStats,
    /// (target, artifact, machine, sim options, inputs, args) → simulation
    /// result. A hit skips the cycle-level simulation entirely.
    pub simulate: StageStats,
    /// (target, machine, program) → prepared block engine (validated,
    /// pre-decoded and block-partitioned program). A hit reuses the
    /// in-memory preparation across runs of the same artifact — e.g. the
    /// same cell under different inputs — instead of re-validating and
    /// re-preparing per run. Process-local only (never persisted): the
    /// prepared forms are cheap to rebuild and not serializable.
    pub decode: StageStats,
    /// Memory-tier artifacts evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held by the memory tier.
    pub resident_bytes: u64,
    /// Memory-tier counters.
    pub mem: TierStats,
    /// Disk-tier counters (all zero when no disk tier is attached).
    pub disk: TierStats,
    /// Whether a persistent disk tier is attached.
    pub has_disk: bool,
}

impl CacheStats {
    /// Total hits across all stages (served from any tier).
    pub fn hits(&self) -> u64 {
        self.parse.hits
            + self.optimize.hits
            + self.profile.hits
            + self.compile.hits
            + self.simulate.hits
    }

    /// Total misses across all stages (artifact computed).
    pub fn misses(&self) -> u64 {
        self.parse.misses
            + self.optimize.misses
            + self.profile.misses
            + self.compile.misses
            + self.simulate.misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse {}/{} optimize {}/{} profile {}/{} compile {}/{} simulate {}/{} \
             decode {}/{} (hits/misses), {} evictions, {} KiB resident",
            self.parse.hits,
            self.parse.misses,
            self.optimize.hits,
            self.optimize.misses,
            self.profile.hits,
            self.profile.misses,
            self.compile.hits,
            self.compile.misses,
            self.simulate.hits,
            self.simulate.misses,
            self.decode.hits,
            self.decode.misses,
            self.evictions,
            self.resident_bytes / 1024,
        )?;
        if self.has_disk {
            write!(f, "; disk tier: {}", self.disk)?;
        }
        Ok(())
    }
}

/// Cumulative wall-clock nanoseconds spent *executing* each stage (cache
/// hits cost nothing here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Per stage, indexed by `StageKind as usize`.
    pub ns: [u64; 5],
}

impl StageTimes {
    /// Nanoseconds spent in `stage`.
    pub fn get(&self, stage: StageKind) -> u64 {
        self.ns[stage as usize]
    }
}

/// 64-bit FNV-1a over `key`, from an arbitrary basis (`seed`). The memory
/// tier hashes with the standard basis; the disk tier derives its file
/// names from two independently-seeded hashes.
pub(crate) fn fnv1a64_seeded(key: &str, seed: u64) -> u64 {
    let mut h: u64 = seed;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Standard FNV-1a offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte slice (entry checksums).
pub(crate) fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = FNV_BASIS;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One tier of the artifact cache: an opaque byte store keyed by
/// (stage, full rendered key).
///
/// Implementations **own verification**: `load` must only return a payload
/// that was stored under exactly this (stage, key) pair — via an exact
/// stored-key comparison ([`MemoryStore`]) or a self-describing entry
/// header ([`DiskStore`]). Anything unverifiable is dropped (counted in
/// [`TierStats::stale_drops`]) and reported as a miss, so corruption can
/// only ever cost a recompute. All methods are infallible by contract: a
/// tier that cannot serve (I/O errors, missing directory) behaves as
/// always-miss.
///
/// Payloads are the versioned binary encodings produced by the artifact
/// [`Codec`]s; stores treat them as opaque bytes, which is what makes the
/// tier stack pluggable ([`ArtifactCache::with_tiers`]).
pub trait CacheStore: Send + Sync + fmt::Debug {
    /// Short tier name for stats and summaries (`"mem"`, `"disk"`, …).
    fn label(&self) -> &'static str;

    /// Look up the payload stored for (stage, key); `None` on miss.
    fn load(&self, stage: StageKind, key: &str) -> Option<Vec<u8>>;

    /// Store a payload for (stage, key). An entry already present for the
    /// same key may be kept unchanged (payloads are deterministic encodings
    /// of deterministic artifacts, so both copies are identical).
    fn store(&self, stage: StageKind, key: &str, payload: &[u8]);

    /// Drop the entry for (stage, key), counting a stale drop (called when
    /// a loaded payload fails to decode).
    fn invalidate(&self, stage: StageKind, key: &str);

    /// Drop every entry and reset the tier's counters.
    fn clear(&self);

    /// This tier's counters.
    fn stats(&self) -> TierStats;

    /// Entries currently held, per cacheable stage (indexed by
    /// `StageKind as usize`).
    fn stage_entries(&self) -> [u64; 5];
}

/// Per-stage **self wall time** histograms: the full wall clock of each
/// [`ArtifactCache::get_or_compute`] call (probe + compute + write-through,
/// hits included), minus the wall time of nested stage calls inside its
/// compute closure. Selves therefore partition the outermost call's wall
/// time — summed across stages they reconstruct an evaluation's wall time
/// within tolerance (pinned by the `obs_timing` integration test), unlike
/// [`StageTimes`] which deliberately times only the compute closure's own
/// work.
static STAGE_SELF_NS: [asip_obs::Histogram; 5] = [
    asip_obs::Histogram::new("stage.parse.self_ns"),
    asip_obs::Histogram::new("stage.optimize.self_ns"),
    asip_obs::Histogram::new("stage.profile.self_ns"),
    asip_obs::Histogram::new("stage.compile.self_ns"),
    asip_obs::Histogram::new("stage.simulate.self_ns"),
];

thread_local! {
    /// Wall nanoseconds consumed by already-completed *child* stage calls
    /// of the stage call currently running on this thread.
    static CHILD_STAGE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One stack frame of stage self-time accounting (see [`STAGE_SELF_NS`]).
struct StageFrame {
    start: Instant,
    parent_child_ns: u64,
}

impl StageFrame {
    fn enter() -> StageFrame {
        StageFrame {
            start: Instant::now(),
            parent_child_ns: CHILD_STAGE_NS.with(|c| c.replace(0)),
        }
    }

    fn exit(self, stage: StageKind) {
        let wall = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let children = CHILD_STAGE_NS.with(|c| c.get());
        STAGE_SELF_NS[stage as usize].record(wall.saturating_sub(children));
        // Report this call's *full* wall to the parent frame.
        CHILD_STAGE_NS.with(|c| c.set(self.parent_child_ns.saturating_add(wall)));
    }
}

/// Interned per-tier observability counters, resolved once per
/// [`ArtifactCache`] so the probe loop records through plain `'static`
/// references (no allocation, no map lookups on the hot path).
struct TierObs {
    label: &'static str,
    loads: &'static asip_obs::Counter,
    hits: &'static asip_obs::Counter,
    stores: &'static asip_obs::Counter,
}

impl TierObs {
    fn for_store(store: &dyn CacheStore) -> TierObs {
        let label = store.label();
        TierObs {
            label,
            loads: asip_obs::counter(&format!("cache.{label}.loads")),
            hits: asip_obs::counter(&format!("cache.{label}.hits")),
            stores: asip_obs::counter(&format!("cache.{label}.stores")),
        }
    }
}

/// The tiered, memoized artifact cache shared by every clone of a
/// [`Toolchain`] (clones share one cache via `Arc`).
///
/// Lookups probe the tier stack hottest-first, promote lower-tier hits
/// upward, and write computed artifacts through to every tier; see the
/// [module docs](self) for the verification story. Computation happens
/// outside any lock: concurrent grid cells never serialize on each other's
/// compiles (at worst a race computes the same artifact twice and the
/// deterministic copies are identical).
///
/// [`Toolchain`]: crate::pipeline::Toolchain
pub struct ArtifactCache {
    stores: Vec<Arc<dyn CacheStore>>,
    tier_obs: Vec<TierObs>,
    config: CacheConfig,
    hits: [AtomicU64; 5],
    misses: [AtomicU64; 5],
    stage_ns: [AtomicU64; 5],
    /// Total simulated cycles produced by Simulate-stage *executions*
    /// (cache hits add nothing): the numerator of the session throughput
    /// (MIPS) report.
    sim_cycles: AtomicU64,
    /// Prepared block engines, keyed by (target, machine, program):
    /// validated, block-partitioned forms shared across runs of the same
    /// artifact. Type-erased because the two prepared shapes
    /// (`BlockVliw`/`BlockScalar`) share no trait; process-local
    /// only (not a [`CacheStore`] tier — the forms are not serializable,
    /// and rebuilding them is microseconds).
    prepared: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    decode_hits: AtomicU64,
    decode_misses: AtomicU64,
}

/// Bound on distinct prepared simulations held at once. Each entry is a
/// block-compiled program (kilobytes); the map is wiped wholesale past
/// the cap — a crude policy that is fine because re-preparing is
/// microseconds and real sessions hold far fewer distinct (machine,
/// program) pairs.
const PREPARED_CAP: usize = 512;

impl ArtifactCache {
    /// A new, empty cache with the default configuration (memory budget
    /// from `ASIP_CACHE_BYTES` or [`DEFAULT_CACHE_BYTES`]; no disk tier —
    /// see [`CacheConfig::disk`]).
    pub fn new() -> ArtifactCache {
        ArtifactCache::with_config(CacheConfig::default())
    }

    /// A new, empty, memory-only cache bounded to `byte_budget` resident
    /// bytes.
    pub fn with_budget(byte_budget: u64) -> ArtifactCache {
        ArtifactCache::with_config(CacheConfig {
            byte_budget,
            ..CacheConfig::default()
        })
    }

    /// A new, empty cache with explicit configuration: a [`MemoryStore`]
    /// tier 0, plus a [`DiskStore`] tier 1 when [`CacheConfig::disk`] is
    /// set.
    pub fn with_config(config: CacheConfig) -> ArtifactCache {
        let mut stores: Vec<Arc<dyn CacheStore>> = vec![Arc::new(MemoryStore::new(
            config.byte_budget,
            config.hash_mask,
        ))];
        if let Some(d) = &config.disk {
            stores.push(Arc::new(DiskStore::open(d.clone())));
        }
        ArtifactCache::with_tiers(config, stores)
    }

    /// A cache over an explicit tier stack, hottest first. This is the
    /// pluggability seam: any [`CacheStore`] implementation (remote,
    /// instrumented, …) can participate. `config` is kept for
    /// introspection ([`ArtifactCache::config`]) but the stores themselves
    /// govern retention.
    pub fn with_tiers(config: CacheConfig, stores: Vec<Arc<dyn CacheStore>>) -> ArtifactCache {
        assert!(!stores.is_empty(), "a cache needs at least one tier");
        let tier_obs = stores.iter().map(|s| TierObs::for_store(&**s)).collect();
        ArtifactCache {
            stores,
            tier_obs,
            config,
            hits: Default::default(),
            misses: Default::default(),
            stage_ns: Default::default(),
            sim_cycles: AtomicU64::new(0),
            prepared: Mutex::new(HashMap::new()),
            decode_hits: AtomicU64::new(0),
            decode_misses: AtomicU64::new(0),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config.clone()
    }

    /// The configured memory-tier byte budget.
    pub fn byte_budget(&self) -> u64 {
        self.config.byte_budget
    }

    /// The persistent cache directory, when a disk tier is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.config.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// The tier stack, hottest first.
    pub fn tiers(&self) -> &[Arc<dyn CacheStore>] {
        &self.stores
    }

    fn tier_by_label(&self, label: &str) -> Option<&Arc<dyn CacheStore>> {
        self.stores.iter().find(|s| s.label() == label)
    }

    /// Per-stage hit/miss snapshot plus per-tier counters.
    pub fn stats(&self) -> CacheStats {
        let s = |i: usize| StageStats {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
        };
        let mem = self
            .tier_by_label("mem")
            .map(|t| t.stats())
            .unwrap_or_default();
        let disk_tier = self.tier_by_label("disk");
        let disk = disk_tier.map(|t| t.stats()).unwrap_or_default();
        CacheStats {
            parse: s(0),
            optimize: s(1),
            profile: s(2),
            compile: s(3),
            simulate: s(4),
            decode: StageStats {
                hits: self.decode_hits.load(Ordering::Relaxed),
                misses: self.decode_misses.load(Ordering::Relaxed),
            },
            evictions: mem.evictions,
            resident_bytes: mem.resident_bytes,
            mem,
            disk,
            has_disk: disk_tier.is_some(),
        }
    }

    /// Cumulative per-stage execution time snapshot.
    pub fn stage_times(&self) -> StageTimes {
        let mut ns = [0u64; 5];
        for (i, slot) in ns.iter_mut().enumerate() {
            *slot = self.stage_ns[i].load(Ordering::Relaxed);
        }
        StageTimes { ns }
    }

    /// Drop all cached artifacts in **every** tier (including persisted
    /// disk entries) and reset all counters.
    pub fn clear(&self) {
        for s in &self.stores {
            s.clear();
        }
        for c in self.hits.iter().chain(&self.misses).chain(&self.stage_ns) {
            c.store(0, Ordering::Relaxed);
        }
        self.sim_cycles.store(0, Ordering::Relaxed);
        self.prepared.lock().unwrap().clear();
        self.decode_hits.store(0, Ordering::Relaxed);
        self.decode_misses.store(0, Ordering::Relaxed);
    }

    /// Total simulated cycles recorded by Simulate-stage executions (cache
    /// hits add nothing). Together with
    /// [`StageTimes::get`]`(StageKind::Simulate)` this yields the session's
    /// simulation throughput (cycles per host second).
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles.load(Ordering::Relaxed)
    }

    /// Record cycles simulated by one Simulate-stage execution.
    pub(crate) fn record_sim_cycles(&self, cycles: u64) {
        self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Look up (or build and retain) a **prepared simulation** under
    /// `key` — a validated, block-compiled program ready to run. Counted
    /// in [`CacheStats::decode`]. `build` runs outside the lock: a racing
    /// duplicate preparation is tolerated (both copies are equivalent;
    /// last insert wins). Keys must render everything the preparation
    /// reads — target flavor, machine tables, program — so distinct
    /// preparations can never alias.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns (typically program validation failure).
    pub fn get_or_prepare<T: Any + Send + Sync>(
        &self,
        key: String,
        build: impl FnOnce() -> Result<T, ToolchainError>,
    ) -> Result<Arc<T>, ToolchainError> {
        if let Some(any) = self.prepared.lock().unwrap().get(&key) {
            if let Ok(hit) = Arc::clone(any).downcast::<T>() {
                self.decode_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut map = self.prepared.lock().unwrap();
        if map.len() >= PREPARED_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        Ok(built)
    }

    /// Number of artifacts held by the hottest (memory) tier, per
    /// cacheable stage.
    pub fn len(&self) -> [usize; 5] {
        let e = self.stores[0].stage_entries();
        e.map(|n| n as usize)
    }

    /// Whether no tier holds any artifact.
    pub fn is_empty(&self) -> bool {
        self.stores
            .iter()
            .all(|s| s.stage_entries().iter().all(|&n| n == 0))
    }

    /// Estimated resident artifact bytes in the memory tier.
    pub fn resident_bytes(&self) -> u64 {
        self.tier_by_label("mem")
            .map(|t| t.stats().resident_bytes)
            .unwrap_or(0)
    }

    /// Look up `key` for `stage` through the tier stack, computing and
    /// writing through on a full miss.
    ///
    /// A hit in a colder tier is promoted into every hotter tier; a
    /// payload that fails to decode is invalidated in the tier that served
    /// it and the probe continues downward — corruption degrades to a
    /// recompute, never an error. `compute` runs outside any lock and
    /// times only this stage's own work (nested stage calls inside
    /// `compute` — e.g. Optimize invoking Parse — record under their own
    /// [`StageKind`], so [`StageTimes`] entries add up instead of
    /// double-counting).
    pub(crate) fn get_or_compute<V: Codec>(
        &self,
        stage: StageKind,
        key: String,
        compute: impl FnOnce(&mut StageTimer) -> Result<V, ToolchainError>,
    ) -> Result<V, ToolchainError> {
        // Symmetric timing: the frame measures this call's *entire* wall
        // time (hit or miss, probe and write-through included), net of
        // nested stage calls — see STAGE_SELF_NS.
        let frame = StageFrame::enter();
        let span = asip_obs::span("stage", stage.name());
        let out = self.probe_or_compute(stage, key, compute, span);
        frame.exit(stage);
        out
    }

    fn probe_or_compute<V: Codec>(
        &self,
        stage: StageKind,
        key: String,
        compute: impl FnOnce(&mut StageTimer) -> Result<V, ToolchainError>,
        mut span: asip_obs::Span,
    ) -> Result<V, ToolchainError> {
        for (i, store) in self.stores.iter().enumerate() {
            let obs = &self.tier_obs[i];
            obs.loads.add(1);
            let payload = {
                let mut tier_span = asip_obs::span("cache", obs.label);
                tier_span.note("load");
                store.load(stage, &key)
            };
            let Some(payload) = payload else {
                continue;
            };
            match V::decode_all(&payload) {
                Ok(v) => {
                    obs.hits.add(1);
                    for (j, hotter) in self.stores[..i].iter().enumerate() {
                        let promote = &self.tier_obs[j];
                        promote.stores.add(1);
                        let mut tier_span = asip_obs::span("cache", promote.label);
                        tier_span.note("store");
                        hotter.store(stage, &key, &payload);
                    }
                    self.hits[stage as usize].fetch_add(1, Ordering::Relaxed);
                    span.note("hit");
                    return Ok(v);
                }
                // Verified container, undecodable payload (e.g. encoded by
                // a build with different tag assignments): drop and fall
                // through to the next tier.
                Err(_) => {
                    let mut tier_span = asip_obs::span("cache", obs.label);
                    tier_span.note("stale-drop");
                    store.invalidate(stage, &key);
                }
            }
        }
        self.misses[stage as usize].fetch_add(1, Ordering::Relaxed);
        span.note("miss");
        let mut timer = StageTimer::default();
        let v = compute(&mut timer)?;
        self.stage_ns[stage as usize].fetch_add(timer.ns, Ordering::Relaxed);
        let payload = v.encode_to_vec();
        for (j, store) in self.stores.iter().enumerate() {
            let tier = &self.tier_obs[j];
            tier.stores.add(1);
            let mut tier_span = asip_obs::span("cache", tier.label);
            tier_span.note("store");
            store.store(stage, &key, &payload);
        }
        Ok(v)
    }
}

/// Accumulates the nanoseconds a stage spends in its *own* work. Stage
/// compute closures wrap their work in [`StageTimer::time`] and leave
/// nested stage calls outside, so those record under their own stage.
#[derive(Debug, Default)]
pub(crate) struct StageTimer {
    ns: u64,
}

impl StageTimer {
    pub(crate) fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns = self
            .ns
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

/// `Debug` prints the stats snapshot, not megabytes of artifacts.
impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .field("budget", &self.config.byte_budget)
            .field("tiers", &self.stores.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::mem::ENTRY_OVERHEAD;
    use super::*;
    use asip_ir::Module;
    use std::sync::Mutex;

    fn module(src: &str) -> Module {
        asip_tinyc::compile(src).unwrap()
    }

    fn bare(budget: u64, mask: u64) -> ArtifactCache {
        // Memory tier only: unit tests here must not pick up ASIP_CACHE_DIR.
        let config = CacheConfig {
            byte_budget: budget,
            hash_mask: mask,
            disk: None,
        };
        ArtifactCache::with_config(config)
    }

    fn store(cache: &ArtifactCache, key: &str, m: &Module) -> Result<Module, ToolchainError> {
        cache.get_or_compute(StageKind::Parse, key.to_string(), |t| {
            Ok(t.time(|| m.clone()))
        })
    }

    /// Payload + bookkeeping bytes one entry occupies in the memory tier.
    fn entry_bytes(key: &str, m: &Module) -> u64 {
        key.len() as u64 + m.encode_to_vec().len() as u64 + ENTRY_OVERHEAD
    }

    #[test]
    fn hit_returns_identical_artifact() {
        let cache = bare(u64::MAX, !0);
        let m = module("void main(int a) { emit(a + 1); }");
        let first = store(&cache, "k", &m).unwrap();
        let second = store(&cache, "k", &m).unwrap();
        assert_eq!(first, m);
        assert_eq!(second, m);
        let s = cache.stats();
        assert_eq!(s.parse.hits, 1);
        assert_eq!(s.parse.misses, 1);
        assert_eq!(s.evictions, 0);
        assert!(s.resident_bytes > 0);
        assert!(!s.has_disk);
        assert_eq!(s.mem.hits, 1);
        assert_eq!(s.mem.loads, 2);
        assert_eq!(s.mem.stores, 1);
    }

    #[test]
    fn forced_collisions_never_alias() {
        // hash_mask 0: every key lands in bucket 0; only the stored-key
        // comparison separates artifacts.
        let cache = bare(u64::MAX, 0);
        let a = module("void main(int a) { emit(a + 1); }");
        let b = module("void main(int a) { emit(a - 1); }");
        store(&cache, "ka", &a).unwrap();
        store(&cache, "kb", &b).unwrap();
        let back_a = store(&cache, "ka", &a).unwrap();
        let back_b = store(&cache, "kb", &b).unwrap();
        assert_eq!(back_a, a);
        assert_eq!(back_b, b);
        let s = cache.stats();
        assert_eq!(s.parse.misses, 2, "{s}");
        assert_eq!(s.parse.hits, 2, "{s}");
        assert_eq!(cache.len(), [2, 0, 0, 0, 0]);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let m = module("void main(int a) { emit(a); }");
        let bytes = entry_bytes("k1", &m) + 2;
        // Room for exactly two entries.
        let cache = bare(2 * bytes, !0);
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k2", &m).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        // Touch k1 so k2 is the LRU victim.
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k3", &m).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "{s}");
        assert!(s.resident_bytes <= cache.byte_budget(), "{s}");
        // k1 survived (hit), k2 was evicted (miss again).
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k2", &m).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.hits, 2, "{s}");
        assert_eq!(s.parse.misses, 4, "{s}");
    }

    #[test]
    fn oversized_artifact_is_not_admitted_and_does_not_flush() {
        let small = module("void main(int a) { emit(a); }");
        let unit = entry_bytes("k1", &small) + 2;
        let cache = bare(3 * unit, !0);
        store(&cache, "k1", &small).unwrap();
        store(&cache, "k2", &small).unwrap();
        // Larger than the whole budget: returned to the caller but never
        // retained, and the resident entries stay hot.
        let mut big = module("int g[4096]; void main(int a) { emit(g[a]); }");
        big.globals[0].init = vec![7; 4096]; // make the encoding genuinely big
        assert!(entry_bytes("big", &big) > cache.byte_budget());
        let back = store(&cache, "big", &big).unwrap();
        assert_eq!(back, big);
        assert_eq!(cache.stats().evictions, 1, "oversized counts as evicted");
        store(&cache, "k1", &small).unwrap();
        store(&cache, "k2", &small).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.hits, 2, "small entries must survive: {s}");
        // The oversized artifact recomputes (it was never resident).
        store(&cache, "big", &big).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.misses, 4, "{s}");
        assert_eq!(s.evictions, 2, "{s}");
        assert!(s.resident_bytes <= cache.byte_budget(), "{s}");
    }

    #[test]
    fn zero_budget_disables_retention_but_stays_correct() {
        let cache = bare(0, !0);
        let m = module("void main(int a) { emit(a * 2); }");
        for _ in 0..3 {
            let back = store(&cache, "k", &m).unwrap();
            assert_eq!(back, m);
        }
        let s = cache.stats();
        assert_eq!(s.parse.hits, 0, "{s}");
        assert_eq!(s.parse.misses, 3, "{s}");
        assert_eq!(s.evictions, 3, "{s}");
        assert!(cache.is_empty());
        assert_eq!(s.resident_bytes, 0, "{s}");
    }

    #[test]
    fn clear_resets_budget_accounting() {
        let cache = bare(u64::MAX, !0);
        let m = module("void main(int a) { emit(a); }");
        store(&cache, "k", &m).unwrap();
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// A custom tier that records every call — proves the tier stack is
    /// genuinely pluggable and pins the read-through/write-through protocol.
    #[derive(Debug, Default)]
    struct TraceStore {
        entries: Mutex<Vec<(StageKind, String, Vec<u8>)>>,
        hits: AtomicU64,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl CacheStore for TraceStore {
        fn label(&self) -> &'static str {
            "trace"
        }

        fn load(&self, stage: StageKind, key: &str) -> Option<Vec<u8>> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            let found = self
                .entries
                .lock()
                .unwrap()
                .iter()
                .find(|(s, k, _)| *s == stage && k == key)
                .map(|(_, _, p)| p.clone());
            if found.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            found
        }

        fn store(&self, stage: StageKind, key: &str, payload: &[u8]) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .push((stage, key.to_string(), payload.to_vec()));
        }

        fn invalidate(&self, _stage: StageKind, _key: &str) {}

        fn clear(&self) {
            self.entries.lock().unwrap().clear();
        }

        fn stats(&self) -> TierStats {
            TierStats {
                hits: self.hits.load(Ordering::Relaxed),
                loads: self.loads.load(Ordering::Relaxed),
                stores: self.stores.load(Ordering::Relaxed),
                ..TierStats::default()
            }
        }

        fn stage_entries(&self) -> [u64; 5] {
            let mut out = [0u64; 5];
            for (s, _, _) in self.entries.lock().unwrap().iter() {
                out[*s as usize] += 1;
            }
            out
        }
    }

    #[test]
    fn custom_tier_sees_write_through_and_serves_read_through() {
        let trace = Arc::new(TraceStore::default());
        let mem: Arc<dyn CacheStore> = Arc::new(MemoryStore::new(u64::MAX, !0));
        let config = CacheConfig {
            byte_budget: u64::MAX,
            hash_mask: !0,
            disk: None,
        };
        let cache = ArtifactCache::with_tiers(config, vec![mem, trace.clone()]);
        let m = module("void main(int a) { emit(a + 3); }");

        // Miss: computed once, written through to both tiers.
        store(&cache, "k", &m).unwrap();
        assert_eq!(trace.stores.load(Ordering::Relaxed), 1);

        // Memory hit: the cold tier is not consulted.
        store(&cache, "k", &m).unwrap();
        assert_eq!(trace.loads.load(Ordering::Relaxed), 1);

        // Fresh cache sharing only the trace tier: read-through hit, and
        // the payload is promoted into the new memory tier.
        let cache2 = ArtifactCache::with_tiers(
            CacheConfig {
                byte_budget: u64::MAX,
                hash_mask: !0,
                disk: None,
            },
            vec![Arc::new(MemoryStore::new(u64::MAX, !0)), trace.clone()],
        );
        let back = store(&cache2, "k", &m).unwrap();
        assert_eq!(back, m);
        let s = cache2.stats();
        assert_eq!(s.parse.hits, 1, "cold-tier hit counts for the stage");
        assert_eq!(s.parse.misses, 0);
        assert_eq!(trace.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache2.len(), [1, 0, 0, 0, 0], "promoted into memory");
        // Next lookup is a pure memory hit.
        store(&cache2, "k", &m).unwrap();
        assert_eq!(trace.loads.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn undecodable_payload_in_a_tier_degrades_to_recompute() {
        /// A tier that always claims a (verified) hit with garbage bytes.
        #[derive(Debug, Default)]
        struct GarbageStore {
            invalidated: AtomicU64,
        }
        impl CacheStore for GarbageStore {
            fn label(&self) -> &'static str {
                "garbage"
            }
            fn load(&self, _stage: StageKind, _key: &str) -> Option<Vec<u8>> {
                Some(vec![0xff, 0xff, 0xff])
            }
            fn store(&self, _stage: StageKind, _key: &str, _payload: &[u8]) {}
            fn invalidate(&self, _stage: StageKind, _key: &str) {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
            }
            fn clear(&self) {}
            fn stats(&self) -> TierStats {
                TierStats::default()
            }
            fn stage_entries(&self) -> [u64; 5] {
                [0; 5]
            }
        }

        let garbage = Arc::new(GarbageStore::default());
        let cache = ArtifactCache::with_tiers(
            CacheConfig {
                byte_budget: u64::MAX,
                hash_mask: !0,
                disk: None,
            },
            vec![garbage.clone()],
        );
        let m = module("void main(int a) { emit(a); }");
        let back = store(&cache, "k", &m).unwrap();
        assert_eq!(back, m, "garbage payload must recompute, not corrupt");
        let s = cache.stats();
        assert_eq!(s.parse.misses, 1, "{s}");
        assert_eq!(garbage.invalidated.load(Ordering::Relaxed), 1);
    }
}
