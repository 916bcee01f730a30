//! Integration tests for the builder-configured `Session` and the unified
//! batch-evaluation API: builder defaults and overrides, request-ordered
//! determinism across thread counts, LRU byte-budget eviction, and the
//! parallel DSE acceptance path.

use asip::core::dse::{explore, DesignPoint, Exploration, SearchSpace};
use asip::core::{EvalRequest, Session};
use asip::isa::MachineDescription;
use asip::workloads;

fn family() -> Vec<MachineDescription> {
    vec![
        MachineDescription::ember1(),
        MachineDescription::ember2(),
        MachineDescription::ember4(),
    ]
}

fn suite(names: &[&str]) -> Vec<workloads::Workload> {
    names
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect()
}

fn cross_requests(ws: &[workloads::Workload], ms: &[MachineDescription]) -> Vec<EvalRequest> {
    EvalRequest::grid(ms, ws)
}

const MIB: u64 = 1024 * 1024;

/// `eval_batch` returns request-ordered outcomes that are identical under
/// one worker and many.
#[test]
fn eval_batch_deterministic_across_thread_counts() {
    let ws = suite(&["fir", "crc32", "rle", "median"]);
    let reqs = cross_requests(&ws, &family());
    let serial = Session::builder().threads(1).cache_bytes(64 * MIB).build();
    let parallel = Session::builder().threads(8).cache_bytes(64 * MIB).build();
    let a = serial.eval_batch(&reqs);
    let b = parallel.eval_batch(&reqs);
    assert_eq!(a.len(), reqs.len());
    for ((x, y), r) in a.iter().zip(&b).zip(&reqs) {
        assert_eq!(x.workload, r.workload.name);
        assert_eq!(x.machine, r.machine.name);
        let rx = x.result.as_ref().expect("serial cell runs");
        let ry = y.result.as_ref().expect("parallel cell runs");
        assert_eq!(
            rx.run.sim.cycles, ry.run.sim.cycles,
            "{}/{}",
            x.machine, x.workload
        );
        assert_eq!(rx.run.sim.output, ry.run.sim.output);
        assert_eq!(rx.run.code_bytes, ry.run.code_bytes);
    }
}

/// A tiny byte budget forces evictions; every evicted artifact recomputes
/// to an identical measurement and the cache never exceeds its budget.
#[test]
fn lru_eviction_recomputes_identically_under_budget() {
    let ws = suite(&["fir", "crc32", "sort"]);
    let reqs = cross_requests(&ws, &family());
    let unbounded = Session::builder().threads(2).cache_bytes(64 * MIB).build();
    let tiny = Session::builder().threads(2).cache_bytes(16 * 1024).build();

    let reference = unbounded.eval_batch(&reqs);
    // Two passes through the tiny session: plenty of churn.
    let first = tiny.eval_batch(&reqs);
    let second = tiny.eval_batch(&reqs);
    let stats = tiny.cache_stats();
    assert!(stats.evictions > 0, "tiny budget must evict: {stats}");
    assert!(
        stats.resident_bytes <= tiny.cache().byte_budget(),
        "cache exceeded its budget: {stats}"
    );
    for ((r, f), s) in reference.iter().zip(&first).zip(&second) {
        let rr = r.result.as_ref().unwrap();
        let ff = f.result.as_ref().unwrap();
        let ss = s.result.as_ref().unwrap();
        assert_eq!(
            rr.run.sim.cycles, ff.run.sim.cycles,
            "{}/{}",
            r.machine, r.workload
        );
        assert_eq!(
            rr.run.sim.cycles, ss.run.sim.cycles,
            "{}/{}",
            r.machine, r.workload
        );
        assert_eq!(rr.run.sim.output, ss.run.sim.output);
    }
}

fn assert_points_byte_identical(a: &Exploration, b: &Exploration) {
    assert_eq!(a.points.len(), b.points.len());
    assert_eq!(a.skipped.len(), b.skipped.len());
    let key = |p: &DesignPoint| {
        (
            p.machine.name.clone(),
            p.per_workload_cycles.clone(),
            p.time_ns.to_bits(),
            p.cycles.to_bits(),
            p.area_mm2.to_bits(),
            p.energy_nj.to_bits(),
            p.ise_budget.to_bits(),
        )
    };
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(key(x), key(y));
    }
}

/// The acceptance path: `dse::explore` on the *default* `SearchSpace` runs
/// its candidate evaluations through `Session::eval_batch` on more than one
/// thread, with results byte-identical to the sequential run — and with a
/// tiny cache budget the exploration still matches while the cache stays
/// bounded and evicts.
#[test]
fn dse_explore_parallel_byte_identical_and_cache_bounded() {
    let space = SearchSpace::default();
    let ws = suite(&["crc32"]);

    let serial = Session::builder().threads(1).cache_bytes(64 * MIB).build();
    let parallel = Session::builder().threads(8).cache_bytes(64 * MIB).build();
    assert!(parallel.threads() > 1);
    let ex_serial = explore(&serial, &space, &ws);
    let ex_parallel = explore(&parallel, &space, &ws);
    assert!(
        ex_serial.points.len() >= 10,
        "default space must produce a real grid: {} points",
        ex_serial.points.len()
    );
    assert_points_byte_identical(&ex_serial, &ex_parallel);

    // Same exploration under a tiny byte budget: identical results, bounded
    // memory, non-zero eviction counter.
    let tiny = Session::builder().threads(8).cache_bytes(24 * 1024).build();
    let ex_tiny = explore(&tiny, &space, &ws);
    assert_points_byte_identical(&ex_serial, &ex_tiny);
    let stats = tiny.cache_stats();
    assert!(stats.evictions > 0, "tiny budget must evict: {stats}");
    assert!(
        stats.resident_bytes <= tiny.cache().byte_budget(),
        "cache exceeded its budget: {stats}"
    );
}

/// A mixed batch of scalar and VLIW requests evaluates in one
/// `eval_batch` call: request-ordered, thread-count-invariant, and with
/// distinct Compile artifacts per target kind.
#[test]
fn mixed_scalar_and_vliw_batch_is_deterministic_and_unaliased() {
    let ws = suite(&["fir", "crc32", "dither"]);
    let machines = vec![
        MachineDescription::scalar2(),
        MachineDescription::ember4(),
        MachineDescription::scalar1(),
    ];
    let reqs = cross_requests(&ws, &machines);
    let serial = Session::builder().threads(1).cache_bytes(64 * MIB).build();
    let parallel = Session::builder().threads(8).cache_bytes(64 * MIB).build();
    let a = serial.eval_batch(&reqs);
    let b = parallel.eval_batch(&reqs);
    for ((x, y), r) in a.iter().zip(&b).zip(&reqs) {
        assert_eq!(x.workload, r.workload.name);
        assert_eq!(x.machine, r.machine.name);
        let rx = x.result.as_ref().expect("serial cell runs");
        let ry = y.result.as_ref().expect("parallel cell runs");
        assert_eq!(
            rx.run.sim.cycles, ry.run.sim.cycles,
            "{}/{}",
            x.machine, x.workload
        );
        assert_eq!(rx.run.sim.output, ry.run.sim.output);
    }
    // Wider scalar issue helps, and the customized VLIW beats both.
    let cyc = |m: &str, w: &str| {
        a.iter()
            .find(|o| o.machine == m && o.workload == w)
            .and_then(|o| o.cycles())
            .unwrap()
    };
    for w in ["fir", "crc32", "dither"] {
        assert!(cyc("scalar2", w) <= cyc("scalar1", w), "{w}");
        assert!(cyc("ember4", w) <= cyc("scalar2", w), "{w}");
    }
}

/// Cache keys carry the target kind: a scalar and a VLIW machine with the
/// *same name and identical slot tables* never share a Compile artifact.
#[test]
fn scalar_and_vliw_compiles_never_share_an_artifact() {
    use asip::isa::TargetKind;
    let scalar = MachineDescription::scalar2();
    // The same table with only the target flipped (name intentionally kept).
    let vliw_twin = scalar.derive("scalar2", |m| {
        m.target = TargetKind::Vliw;
    });
    let session = Session::builder().threads(1).cache_bytes(64 * MIB).build();
    let w = workloads::by_name("fir").unwrap();

    let a = session.eval(&EvalRequest::new(w.clone(), scalar.clone()));
    let cold = session.cache_stats();
    assert_eq!(cold.compile.misses, 1, "{cold}");

    let b = session.eval(&EvalRequest::new(w.clone(), vliw_twin.clone()));
    let stats = session.cache_stats();
    assert_eq!(
        stats.compile.misses, 2,
        "vliw twin must be a distinct compile artifact: {stats}"
    );
    assert_eq!(stats.compile.hits, 0, "{stats}");

    // Re-running either is a pure cache hit on its own artifact.
    let a2 = session.eval(&EvalRequest::new(w.clone(), scalar));
    let b2 = session.eval(&EvalRequest::new(w, vliw_twin));
    let warm = session.cache_stats();
    assert_eq!(warm.compile.misses, 2, "{warm}");
    assert_eq!(warm.compile.hits, 2, "{warm}");
    assert_eq!(a.cycles(), a2.cycles());
    assert_eq!(b.cycles(), b2.cycles());
    // Both run correctly; the timing models genuinely differ.
    assert!(a.is_ok() && b.is_ok());
    assert_ne!(
        a.cycles(),
        b.cycles(),
        "scalar pipeline and VLIW measurements should differ"
    );
}

/// The Simulate stage is memoized: a second identical `eval_batch` takes
/// Simulate hits in `CacheStats`, recomputes nothing, and the hit path
/// returns byte-identical `SimResult`s (every field, stalls and activity
/// counters included).
#[test]
fn simulate_stage_memoization_is_recompute_identical() {
    let ws = suite(&["fir", "crc32", "dither"]);
    let machines = vec![
        MachineDescription::ember4(),
        MachineDescription::scalar2(),
        MachineDescription::ember1(),
    ];
    let reqs = cross_requests(&ws, &machines);
    let session = Session::builder().threads(2).cache_bytes(64 * MIB).build();

    let first = session.eval_batch(&reqs);
    let cold = session.cache_stats();
    assert_eq!(
        cold.simulate.misses,
        reqs.len() as u64,
        "every cold cell simulates once: {cold}"
    );
    assert_eq!(cold.simulate.hits, 0, "{cold}");
    let cycles_measured = session.cache().sim_cycles();
    assert!(cycles_measured > 0);

    let second = session.eval_batch(&reqs);
    let warm = session.cache_stats();
    assert_eq!(
        warm.simulate.hits,
        reqs.len() as u64,
        "every warm cell is a Simulate hit: {warm}"
    );
    assert_eq!(
        warm.simulate.misses, cold.simulate.misses,
        "no cell re-simulates: {warm}"
    );
    assert_eq!(
        session.cache().sim_cycles(),
        cycles_measured,
        "cache hits measure nothing new"
    );
    for ((a, b), r) in first.iter().zip(&second).zip(&reqs) {
        let ra = a.result.as_ref().expect("first pass runs");
        let rb = b.result.as_ref().expect("second pass runs");
        // The whole SimResult — output, memory, stalls, activity — must be
        // byte-identical between the computed and the cached path.
        assert_eq!(
            ra.run.sim, rb.run.sim,
            "{}/{}: cached SimResult diverged",
            r.machine.name, r.workload.name
        );
        assert_eq!(ra.run.code_bytes, rb.run.code_bytes);
    }
}

/// A disk entry written under stage key A and moved to key B's file name
/// reads as a key mismatch: the next session drops it (one stale drop),
/// recomputes B's artifact and returns outcomes identical to the first
/// run. With 128-bit keys there are no hash buckets to force collisions
/// in; the entry header's key check is the defense left to pin.
#[test]
fn disk_entry_moved_to_another_key_is_dropped_and_recomputed() {
    use asip::core::cache::entry::{decode_entry, EntryError};
    use asip::core::{ArtifactId, StageKind};
    use asip::isa::codec::Codec;
    use std::fs;
    let dir = std::env::temp_dir().join(format!("asip-session-moved-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let session = || Session::builder().cache_dir(&dir).threads(2).build();
    let reqs = cross_requests(&suite(&["fir", "crc32", "rle"]), &family());
    let baseline = session().eval_batch(&reqs);

    let mut compiled: Vec<_> = fs::read_dir(dir.join("compile"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    compiled.sort();
    assert_eq!(compiled.len(), reqs.len(), "one compile entry per cell");
    let (a, b) = (&compiled[0], &compiled[1]);
    // Format 2 header: magic (8), version (4), stage (1), then the key.
    let key_b = ArtifactId::decode_all(&fs::read(b).unwrap()[13..29]).unwrap();
    assert_eq!(
        format!("{key_b}.art"),
        b.file_name().unwrap().to_str().unwrap()
    );
    fs::rename(a, b).unwrap();
    let moved = fs::read(b).unwrap();
    assert_eq!(
        decode_entry(&moved, StageKind::Compile, key_b),
        Err(EntryError::KeyMismatch)
    );

    let s = session();
    assert_eq!(s.eval_batch(&reqs), baseline, "never A's artifact for B");
    let stats = s.cache_stats();
    assert_eq!(stats.disk.stale_drops, 1, "{stats}");
    // A's entry is gone and B's was dropped: both recompile, nothing else.
    assert_eq!(stats.compile.misses, 2, "{stats}");
    assert_eq!(stats.misses(), 2, "{stats}");
    let _ = fs::remove_dir_all(&dir);
}
