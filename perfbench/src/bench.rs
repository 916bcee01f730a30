//! The four workloads: how each is set up, what state every timed pass
//! starts from, and how every pass's outcomes are checked.

use crate::inputs;
use crate::stats::digest;
use asip_core::cache::DEFAULT_CACHE_BYTES;
use asip_core::{CacheStats, EvalOutcome, EvalRequest, Session, SessionBuilder};
use asip_isa::codec::Codec;
use asip_sim::SimEngine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Worker threads of every timed pass (the build box has two cores).
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 144-cell grid on a fresh cache every pass: every stage misses.
    Cold,
    /// The same grid against a memory tier that already holds it.
    Warm,
    /// The same grid through a new session over a filled disk tier.
    DiskWarm,
    /// Generated long-running loop kernels: the engine cycle loop.
    SimLong,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Cold, Kind::Warm, Kind::DiskWarm, Kind::SimLong];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold_grid",
            Kind::Warm => "warm_grid",
            Kind::DiskWarm => "disk_warm_grid",
            Kind::SimLong => "sim_long",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Every session is configured here, explicitly, so nothing depends on
/// the environment: two workers, the default engine, the default memory
/// budget, and no disk tier unless a pass asks for one.
pub fn builder(kind: Kind) -> SessionBuilder {
    let b = Session::builder()
        .threads(WORKERS)
        .cache_bytes(DEFAULT_CACHE_BYTES)
        .sim_engine(SimEngine::default());
    match kind {
        // The kernels are generated, so no profile is worth collecting;
        // it also keeps the interpreter out of the measured loop.
        Kind::SimLong => b.profile_guided(false),
        _ => b,
    }
}

/// A directory inside the benchmark's own tree, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `tmp/` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Names of the cache counters the benchmark records as exact counts.
pub const COUNT_NAMES: [&str; 14] = [
    "cache.hits.parse",
    "cache.hits.optimize",
    "cache.hits.profile",
    "cache.hits.compile",
    "cache.hits.simulate",
    "cache.misses.parse",
    "cache.misses.optimize",
    "cache.misses.profile",
    "cache.misses.compile",
    "cache.misses.simulate",
    "cache.evictions",
    "cache.disk.loads",
    "cache.disk.hits",
    "cache.disk.stale_drops",
];

/// Index of the first per-stage miss counter in [`COUNT_NAMES`].
pub const MISSES: usize = 5;

pub type Counts = [u64; 14];

pub fn counts(s: &CacheStats) -> Counts {
    let st = [s.parse, s.optimize, s.profile, s.compile, s.simulate];
    let mut c = [0; 14];
    for (i, x) in st.iter().enumerate() {
        c[i] = x.hits;
        c[MISSES + i] = x.misses;
    }
    c[10] = s.evictions;
    c[11] = s.disk.loads;
    c[12] = s.disk.hits;
    c[13] = s.disk.stale_drops;
    c
}

pub fn delta(after: &Counts, before: &Counts) -> Counts {
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

/// Cells attempted and failed, with the first few failures spelled out.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// A check that is not about one cell (attribution, replay, counts).
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// One timed pass: one `eval_batch` over the workload's full cell set.
pub struct Pass {
    pub outcomes: Vec<EvalOutcome>,
    pub secs: f64,
    /// Cache counters this pass added.
    pub counts: Counts,
    pub resident_bytes: u64,
}

impl Pass {
    /// Simulated cycles of every successful cell.
    pub fn cycles(&self) -> u64 {
        self.outcomes.iter().filter_map(|o| o.cycles()).sum()
    }
}

/// Every outcome in its versioned binary encoding, in request order.
pub fn encoded(outcomes: &[EvalOutcome]) -> Vec<Vec<u8>> {
    outcomes.iter().map(|o| o.encode_to_vec()).collect()
}

/// A set-up workload: its requests, the cold reference outcomes every
/// later pass must reproduce byte for byte, and the state passes start
/// from.
pub struct Bench {
    pub kind: Kind,
    pub reqs: Vec<EvalRequest>,
    base: Session,
    reference: Vec<Vec<u8>>,
    cycles_digest: u64,
    disk: Option<ScratchDir>,
}

impl Bench {
    /// Build the session and inputs, run the cold reference pass, and
    /// prime the memory or disk tier; any failing cell fails the set-up.
    pub fn setup(kind: Kind, seed: u64, tally: &mut Tally) -> Result<Bench, String> {
        let reqs = match kind {
            Kind::SimLong => {
                let machines = inputs::long_machines();
                let kernels = inputs::long_kernels(seed)
                    .into_iter()
                    .map(inputs::with_oracle)
                    .collect::<Result<Vec<_>, _>>()?;
                EvalRequest::grid(&machines, &kernels)
            }
            _ => inputs::grid_requests(seed),
        };
        let disk = match kind {
            Kind::DiskWarm => Some(ScratchDir::new("disk")?),
            _ => None,
        };
        let base = match &disk {
            Some(d) => builder(kind).cache_dir(d.path()).build(),
            None => builder(kind).build(),
        };
        // The first pass is cold in every workload: on `warm_grid` it
        // fills the memory tier, on `disk_warm_grid` it writes the disk
        // tier.
        let cold = match kind {
            Kind::Cold | Kind::SimLong => base.fresh_cache().eval_batch(&reqs),
            Kind::Warm | Kind::DiskWarm => base.eval_batch(&reqs),
        };
        let mut bench = Bench {
            kind,
            base,
            reqs,
            reference: Vec::new(),
            cycles_digest: cycles_digest(&cold),
            disk,
        };
        let failed_before = tally.failed;
        bench.check(&cold, tally);
        if tally.failed > failed_before {
            return Err(format!("{}: the cold reference pass failed", kind.name()));
        }
        bench.reference = encoded(&cold);
        if kind == Kind::DiskWarm {
            // The write side is done; later sessions read it back.
            bench.base = builder(kind).build();
            let warm_up = bench.pass(WORKERS);
            bench.check(&warm_up.outcomes, tally);
        }
        Ok(bench)
    }

    /// The session one pass runs on, with `threads` workers: a fresh
    /// cache (`cold_grid`, `sim_long`), the primed one (`warm_grid`), or a
    /// new session with an empty memory tier over the filled directory
    /// (`disk_warm_grid`).
    pub fn pass_session(&self, threads: usize) -> Session {
        match (&self.disk, self.kind) {
            (Some(d), _) => builder(self.kind)
                .threads(threads)
                .cache_dir(d.path())
                .build(),
            (None, Kind::Warm) => self.base.with_threads(threads),
            (None, _) => self.base.fresh_cache().with_threads(threads),
        }
    }

    /// One timed pass with `threads` workers. On `disk_warm_grid` the
    /// time includes opening the session over the directory, which every
    /// disk-warm start pays.
    pub fn pass(&self, threads: usize) -> Pass {
        // Every session but the primed one starts with zeroed counters.
        // Reading them is kept out of the timed region: on a disk-backed
        // cache it scans the directory.
        let before = match self.kind {
            Kind::Warm => counts(&self.base.cache_stats()),
            _ => [0; 14],
        };
        let open = Instant::now();
        let session = self.pass_session(threads);
        let start = if self.disk.is_some() {
            open
        } else {
            Instant::now()
        };
        let outcomes = session.eval_batch(&self.reqs);
        let secs = start.elapsed().as_secs_f64();
        let after = session.cache_stats();
        Pass {
            outcomes,
            secs,
            counts: delta(&counts(&after), &before),
            resident_bytes: after.resident_bytes,
        }
    }

    /// Count every cell and fail each one that errored, came back out of
    /// request order, differs from the expected output, or differs in any
    /// byte from the cold reference pass.
    pub fn check(&self, outcomes: &[EvalOutcome], tally: &mut Tally) {
        if outcomes.len() != self.reqs.len() {
            tally.fail(format!(
                "{} outcomes for {} requests",
                outcomes.len(),
                self.reqs.len()
            ));
        }
        for (i, (o, r)) in outcomes.iter().zip(&self.reqs).enumerate() {
            tally.attempted += 1;
            let cell = format!("{}@{}", r.workload.name, r.machine.name);
            let problem = match &o.result {
                Err(e) => Some(format!("typed error: {e}")),
                Ok(_) if o.workload != r.workload.name || o.machine != r.machine.name => {
                    Some(format!("out of order: got {}@{}", o.workload, o.machine))
                }
                Ok(run) if run.run.sim.output != r.workload.expected => {
                    Some("output differs from the expected stream".to_string())
                }
                Ok(_) => match self.reference.get(i) {
                    Some(bytes) if *bytes != o.encode_to_vec() => {
                        Some("outcome differs from the cold reference pass".to_string())
                    }
                    _ => None,
                },
            };
            if let Some(p) = problem {
                tally.fail(format!("{cell}: {p}"));
            }
        }
    }

    /// The reference outcome bytes of cell `i`.
    pub fn reference(&self, i: usize) -> &[u8] {
        &self.reference[i]
    }

    /// Digest of the reference outcomes in request order.
    pub fn outcome_digest(&self) -> u64 {
        digest(self.reference.iter().map(Vec::as_slice))
    }

    /// Digest of the reference pass's per-cell cycles (see
    /// [`cycles_digest`]).
    pub fn cycles_digest(&self) -> u64 {
        self.cycles_digest
    }
}

/// Digest of the per-cell cycle counts in (machine, workload) order,
/// independent of request order: equal across the three grid workloads
/// and across seeds.
fn cycles_digest(outcomes: &[EvalOutcome]) -> u64 {
    let mut cells: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let cycles = o.cycles().unwrap_or(0);
            format!("{}\u{1f}{}\u{1f}{cycles}", o.machine, o.workload)
        })
        .collect();
    cells.sort();
    digest(cells.iter().map(String::as_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_core::EvalRun;

    fn outcomes() -> Vec<EvalOutcome> {
        let s = builder(Kind::Cold).threads(1).build();
        let w = asip_workloads::by_name("fir").unwrap();
        s.eval_batch(&[
            EvalRequest::new(w.clone(), asip_isa::MachineDescription::ember1()),
            EvalRequest::new(w, asip_isa::MachineDescription::scalar1()),
        ])
    }

    fn outcome_digest(outs: &[EvalOutcome]) -> u64 {
        digest(encoded(outs).iter().map(Vec::as_slice))
    }

    #[test]
    fn outcome_digest_sees_order_and_every_field() {
        let outs = outcomes();
        let d = outcome_digest(&outs);
        assert_eq!(
            d,
            outcome_digest(&outcomes()),
            "evaluation is deterministic"
        );
        let mut swapped = outs.clone();
        swapped.swap(0, 1);
        assert_ne!(d, outcome_digest(&swapped));
        let mut one_cycle = outs.clone();
        if let Ok(EvalRun { run, .. }) = &mut one_cycle[1].result {
            run.sim.cycles += 1;
        }
        assert_ne!(d, outcome_digest(&one_cycle));
    }

    #[test]
    fn counts_delta_saturates() {
        let mut a = [0; 14];
        a[3] = 5;
        let mut b = [0; 14];
        b[3] = 2;
        b[4] = 1;
        let d = delta(&a, &b);
        assert_eq!((d[3], d[4]), (3, 0));
    }
}
