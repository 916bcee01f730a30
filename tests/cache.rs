//! Integration tests for the staged pipeline driver: the artifact cache and
//! the parallel N×M grid, exercised through the `asip` facade exactly as the
//! experiment binaries use them.

use asip::core::nxm::{run_grid, run_grid_threaded};
use asip::core::Session;
use asip::isa::MachineDescription;
use asip::workloads;

fn grid_3x6() -> (Vec<MachineDescription>, Vec<workloads::Workload>) {
    let machines = vec![
        MachineDescription::ember1(),
        MachineDescription::ember4(),
        MachineDescription::ember4x2(),
    ];
    let ws: Vec<_> = ["fir", "viterbi", "median", "crc32", "sort", "dither"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    (machines, ws)
}

/// The 3×6 subset runs on multiple workers and the shared artifact cache
/// takes hits already within the first pass (each workload's front half is
/// reused across the three machines).
#[test]
fn grid_3x6_runs_parallel_with_cache_hits() {
    let (machines, ws) = grid_3x6();
    let session = Session::builder().build();
    let grid = run_grid_threaded(&session, &machines, &ws, 4);
    assert!(grid.all_pass(), "\n{grid}");
    assert_eq!(grid.parallelism, 4);
    assert_eq!(grid.cells.len(), 18);

    let stats = session.cache_stats();
    assert_eq!(stats.compile.misses, 18, "every cell is a distinct compile");
    // 6 workloads × 3 machines: at least the serial-order reuse must show
    // up even under racing workers.
    assert!(stats.hits() > 0, "front halves must be shared: {stats}");
}

/// The second compile of every (workload, opt-config) pair is a cache hit,
/// and the cached cycle counts are identical to an uncached session's.
#[test]
fn second_grid_pass_hits_cache_with_identical_results() {
    let (machines, ws) = grid_3x6();
    let session = Session::builder().build();
    let first = run_grid(&session, &machines, &ws);
    assert!(first.all_pass(), "\n{first}");
    let cold = session.cache_stats();

    let second = run_grid(&session, &machines, &ws);
    assert!(second.all_pass(), "\n{second}");
    let warm = session.cache_stats();
    assert_eq!(
        warm.misses(),
        cold.misses(),
        "second pass recomputes nothing"
    );
    assert_eq!(
        warm.compile.hits,
        cold.compile.hits + 18,
        "all 18 second-pass compiles served from cache"
    );

    // Cached results equal a completely uncached session's results.
    let uncached = run_grid_threaded(&session.fresh_cache(), &machines, &ws, 1);
    for (a, b) in second.cells.iter().zip(&uncached.cells) {
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.outcome, b.outcome, "{}/{}", a.machine, a.workload);
    }
}

/// Repeated `run_workload` of the same pair: hit counters climb per stage
/// and the simulated cycles/output never change.
#[test]
fn repeated_run_workload_hits_and_is_stable() {
    let session = Session::builder().build();
    let w = workloads::by_name("fir").unwrap();
    let m = MachineDescription::ember4();
    let baseline = session.run_workload(&w, &m).unwrap();
    for i in 1..=3u64 {
        let run = session.run_workload(&w, &m).unwrap();
        assert_eq!(run.sim.cycles, baseline.sim.cycles, "pass {i}");
        assert_eq!(run.sim.output, baseline.sim.output, "pass {i}");
        let stats = session.cache_stats();
        assert_eq!(stats.optimize.hits, i);
        assert_eq!(stats.profile.hits, i);
        assert_eq!(stats.compile.hits, i);
    }
}

/// Repeated measurement of one compiled artifact reuses its prepared
/// (block-compiled) simulation form: different arguments miss
/// the Simulate tier — they are distinct measurements — but hit the
/// process-local preparation map surfaced as [`CacheStats::decode`].
#[test]
fn prepared_simulation_reused_across_runs() {
    let w = |x: i32| workloads::Workload {
        name: "triple".into(),
        area: workloads::AppArea::Cellphone,
        description: "scale by three".into(),
        source: "void main(int x) { emit(x * 3); }".into(),
        args: vec![x],
        inputs: vec![],
        expected: vec![3 * x],
    };
    let m = MachineDescription::ember4();

    let session = Session::builder().build();
    session.run_workload(&w(5), &m).expect("first run");
    let stats = session.cache_stats();
    assert_eq!(
        (stats.decode.hits, stats.decode.misses),
        (0, 1),
        "first run prepares: {stats}"
    );

    session.run_workload(&w(7), &m).expect("second run");
    let stats = session.cache_stats();
    assert_eq!(
        stats.simulate.misses, 2,
        "distinct args are distinct measurements: {stats}"
    );
    assert_eq!(
        (stats.decode.hits, stats.decode.misses),
        (1, 1),
        "the prepared engine must be reused: {stats}"
    );

    // The reference interpreter prepares nothing by design.
    let session = Session::builder()
        .sim_engine(asip::sim::SimEngine::Reference)
        .build();
    session.run_workload(&w(5), &m).expect("reference run");
    let stats = session.cache_stats();
    assert_eq!((stats.decode.hits, stats.decode.misses), (0, 0), "{stats}");
}
