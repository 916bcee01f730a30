//! Microbenchmarks for the simulator cycle loops: the block-compiled
//! engines (`asip_sim::block`) against the preserved interpretive
//! reference loops (`asip_sim::reference`), reported as simulated cycles
//! per host second (MIPS), plus an end-to-end cold-grid wall-time
//! measurement mirroring `exp_nxm`'s first pass.
//!
//! Run with `cargo bench -p asip_bench --bench sim_core`. The vendored
//! criterion shim prints ns/iter per case; this bench additionally prints
//! a two-way MIPS table (block, reference) with per-case and geomean
//! speedups, and writes the geomean to `BENCH_sim.json` so CI can track
//! the trajectory across commits.

use asip_backend::{compile_module, compile_module_scalar, BackendOptions};
use asip_core::nxm::run_grid;
use asip_core::{ArtifactCache, Session};
use asip_isa::{MachineDescription, TargetKind};
use asip_sim::{
    reference, BlockScalar, BlockVliw, ScalarSimulator, SimEngine, SimOptions, Simulator,
};
use asip_workloads::Workload;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// A synthetic long-running kernel: with millions of simulated cycles per
/// run, the per-run setup (memory image, stack) is fully amortized and the
/// measurement isolates the cycle loop itself — which is what this bench
/// is about. The benchmark kernels (short by design, so grids stay fast)
/// ride along as the realistic-mix cases.
fn synthetic(name: &str, source: &str, args: Vec<i32>) -> Workload {
    Workload {
        name: name.to_string(),
        area: asip_workloads::AppArea::Control,
        description: "sim-core synthetic load".to_string(),
        source: source.to_string(),
        args,
        inputs: vec![],
        expected: vec![],
    }
}

fn alu_chain() -> Workload {
    synthetic(
        "aluchain",
        r#"
        void main(int n) {
            int a = 1; int b = 2; int s = 0; int i;
            for (i = 0; i < n; i++) {
                a = a * 3 + b;
                b = b ^ (a >> 2);
                s = s + min(a, b) - max(b, i);
                s = s ^ (s << 1);
            }
            emit(s);
        }
        "#,
        vec![60_000],
    )
}

fn mem_stream() -> Workload {
    synthetic(
        "memstream",
        r#"
        int buf[512];
        void main(int n) {
            int i; int s = 0;
            for (i = 0; i < n; i++) {
                int k = i & 511;
                buf[k] = buf[(k + 67) & 511] + i;
                s += buf[k] >> 3;
            }
            emit(s);
        }
        "#,
        vec![80_000],
    )
}

/// Dispatch-bound tight loops: bodies of one or two tiny blocks, so the
/// per-block dispatcher round trip (guards, scoreboard admission, state
/// save/restore) dominates over superop execution.
fn tight_loop() -> Workload {
    synthetic(
        "tightloop",
        r#"
        void main(int n) {
            int s = 0; int i;
            for (i = 0; i < n; i++) { s += i ^ (s >> 1); }
            emit(s);
        }
        "#,
        vec![120_000],
    )
}

fn tight_biased() -> Workload {
    synthetic(
        "tightbiased",
        r#"
        void main(int n) {
            int s = 0; int i;
            for (i = 0; i < n; i++) {
                if ((i & 15) != 0) { s += i; } else { s ^= (s << 3) + 1; }
            }
            emit(s);
        }
        "#,
        vec![100_000],
    )
}

fn tight_nested() -> Workload {
    synthetic(
        "tightnested",
        r#"
        void main(int n) {
            int s = 0; int i; int j;
            for (i = 0; i < n; i++) {
                for (j = 0; j < 8; j++) { s += (i ^ j) & 255; }
            }
            emit(s);
        }
        "#,
        vec![15_000],
    )
}

/// Workload × machine pairs covering both engines and a spread of widths:
/// the realistic benchmark kernels plus the long-running synthetics.
fn cases() -> Vec<(Workload, MachineDescription)> {
    let mut cases: Vec<(Workload, MachineDescription)> = [
        ("crc32", MachineDescription::ember1()),
        ("crc32", MachineDescription::ember4()),
        ("fir", MachineDescription::ember4()),
        ("viterbi", MachineDescription::ember8()),
        ("sobel", MachineDescription::ember4x2()),
        ("crc32", MachineDescription::scalar1()),
        ("fir", MachineDescription::scalar2()),
        ("viterbi", MachineDescription::scalar2()),
    ]
    .into_iter()
    .map(|(w, m)| (asip_workloads::by_name(w).unwrap(), m))
    .collect();
    for m in [
        MachineDescription::ember4(),
        MachineDescription::scalar2(),
        MachineDescription::ember1(),
        MachineDescription::scalar1(),
    ] {
        cases.push((alu_chain(), m.clone()));
        cases.push((mem_stream(), m));
    }
    for m in [
        MachineDescription::ember1(),
        MachineDescription::ember4(),
        MachineDescription::scalar1(),
        MachineDescription::scalar2(),
    ] {
        cases.push((tight_loop(), m.clone()));
        cases.push((tight_biased(), m.clone()));
        cases.push((tight_nested(), m));
    }
    cases
}

/// Time `f` (which returns simulated cycles) until ~0.4s of wall time has
/// accumulated; returns cycles simulated per host second.
fn cycles_per_sec(mut f: impl FnMut() -> u64) -> f64 {
    // Warmup.
    black_box(f());
    let mut iters = 0u64;
    let mut cycles = 0u64;
    let start = Instant::now();
    loop {
        cycles += black_box(f());
        iters += 1;
        if start.elapsed().as_secs_f64() > 0.4 && iters >= 3 {
            break;
        }
    }
    cycles as f64 / start.elapsed().as_secs_f64()
}

/// Measure one (workload, machine) cell on both engines; returns
/// (block cycles/s, reference cycles/s).
///
/// The block engine is prepared **once** and reused across runs, exactly
/// as production does through `ArtifactCache::get_or_prepare` (repeated
/// measurements of one artifact hit the prepared form); the reference
/// interpreter re-validates and re-computes its layout per call, which is
/// its per-cell cost in production too.
fn measure(tc: &asip_core::Toolchain, w: &Workload, m: &MachineDescription) -> (f64, f64) {
    let module = tc.frontend(&w.source).unwrap();
    let profile = tc.profile(&module, &w.inputs, &w.args).unwrap();
    match m.target {
        TargetKind::Vliw => {
            let prog = compile_module(&module, m, Some(&profile), &BackendOptions::default())
                .unwrap()
                .program;
            let bp = BlockVliw::new(m, &prog).unwrap();
            let block = cycles_per_sec(|| {
                bp.run_with_inputs(&w.inputs, &w.args, SimOptions::default())
                    .unwrap()
                    .cycles
            });
            let reference = cycles_per_sec(|| {
                reference::run_vliw_reference(m, &prog, &w.inputs, &w.args, SimOptions::default())
                    .unwrap()
                    .cycles
            });
            (block, reference)
        }
        TargetKind::Scalar => {
            let prog =
                compile_module_scalar(&module, m, Some(&profile), &BackendOptions::default())
                    .unwrap()
                    .program;
            let bp = BlockScalar::new(m, &prog).unwrap();
            let block = cycles_per_sec(|| {
                bp.run_with_inputs(&w.inputs, &w.args, SimOptions::default())
                    .unwrap()
                    .cycles
            });
            let reference = cycles_per_sec(|| {
                reference::run_scalar_reference(m, &prog, &w.inputs, &w.args, SimOptions::default())
                    .unwrap()
                    .cycles
            });
            (block, reference)
        }
    }
}

/// The headline microbenchmark: block vs reference MIPS on every case,
/// with the geomean speedup. The geomean is also written to
/// `BENCH_sim.json` for the CI trajectory.
fn bench_cycle_loops(_c: &mut Criterion) {
    let tc = asip_bench::session().toolchain();
    let mut table = asip_bench::Table::new(&["case", "block MIPS", "reference MIPS", "blk/ref"]);
    let mut over_reference = Vec::new();
    let mut case_lines = Vec::new();
    for (w, m) in cases() {
        let (blk, r) = measure(tc, &w, &m);
        over_reference.push(blk / r);
        table.row(vec![
            format!("{}/{}", w.name, m.name),
            format!("{:.1}", blk / 1e6),
            format!("{:.1}", r / 1e6),
            format!("{:.2}x", blk / r),
        ]);
        case_lines.push(format!(
            "    {{\"case\": \"{}/{}\", \"block_mips\": {:.2}, \"reference_mips\": {:.2}}}",
            w.name,
            m.name,
            blk / 1e6,
            r / 1e6,
        ));
    }
    let gm_ref = asip_bench::geomean(&over_reference);
    println!("\nsim-core cycle loops (cycles simulated per host second)");
    println!("{}", table.render());
    println!("geomean block/reference speedup: {gm_ref:.2}x\n");
    // Machine-readable trajectory for CI: per-case MIPS plus the headline
    // geomean, schema-stable so successive commits diff cleanly.
    let json = format!(
        "{{\n  \"bench\": \"sim_core\",\n  \"geomean\": {{\n    \
         \"block_over_reference\": {gm_ref:.3}\n  }},\n  \"cases\": [\n{}\n  ]\n}}\n",
        case_lines.join(",\n")
    );
    // Cargo runs benches with the package dir as cwd; anchor the file at
    // the workspace root so CI (and humans) find one canonical copy.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote BENCH_sim.json"),
        Err(e) => eprintln!("BENCH_sim.json write failed: {e}"),
    }
}

/// ns/iter lines for the two engines on one hot cell each, through the
/// criterion shim (coarse regression spotting between runs).
fn bench_engine_ns(c: &mut Criterion) {
    let tc = asip_bench::session().toolchain();
    let w = asip_workloads::by_name("crc32").unwrap();
    let module = tc.frontend(&w.source).unwrap();
    let m = MachineDescription::ember4();
    let prog = compile_module(&module, &m, None, &BackendOptions::default())
        .unwrap()
        .program;
    let opts = |engine| SimOptions {
        engine,
        ..SimOptions::default()
    };
    let mut bsim = Simulator::new(&m, &prog, opts(SimEngine::Block)).unwrap();
    for (name, data) in &w.inputs {
        bsim.write_global(name, data);
    }
    let mut g = c.benchmark_group("vliw-cycle-loop");
    g.sample_size(10);
    g.bench_function("crc32-ember4-block", |b| {
        b.iter(|| black_box(bsim.run(&w.args).unwrap()))
    });
    g.bench_function("crc32-ember4-reference", |b| {
        b.iter(|| {
            black_box(
                reference::run_vliw_reference(&m, &prog, &w.inputs, &w.args, SimOptions::default())
                    .unwrap(),
            )
        })
    });
    g.finish();

    let s2 = MachineDescription::scalar2();
    let sprog = compile_module_scalar(&module, &s2, None, &BackendOptions::default())
        .unwrap()
        .program;
    let mut bssim = ScalarSimulator::new(&s2, &sprog, opts(SimEngine::Block)).unwrap();
    for (name, data) in &w.inputs {
        bssim.write_global(name, data);
    }
    let mut g = c.benchmark_group("scalar-cycle-loop");
    g.sample_size(10);
    g.bench_function("crc32-scalar2-block", |b| {
        b.iter(|| black_box(bssim.run(&w.args).unwrap()))
    });
    g.bench_function("crc32-scalar2-reference", |b| {
        b.iter(|| {
            black_box(
                reference::run_scalar_reference(
                    &s2,
                    &sprog,
                    &w.inputs,
                    &w.args,
                    SimOptions::default(),
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

/// End-to-end: one cold `exp_nxm`-style grid (all presets × all kernels)
/// through a fresh-cache session — the wall-time number the tentpole's
/// "measurable cold-grid win" criterion tracks.
fn bench_cold_grid(c: &mut Criterion) {
    let machines = MachineDescription::all_presets();
    let workloads = asip_workloads::all();
    let mut g = c.benchmark_group("exp-nxm");
    g.sample_size(2);
    g.bench_function("cold-grid", |b| {
        b.iter(|| {
            // An explicit memory-only cache: a stray ASIP_CACHE_DIR in the
            // environment must not turn the "cold" grid into a disk-warm
            // replay.
            let session = Session::builder()
                .cache(std::sync::Arc::new(ArtifactCache::new()))
                .build();
            let grid = run_grid(&session, &machines, &workloads);
            assert!(grid.all_pass());
            black_box(grid)
        })
    });
    g.finish();
}

criterion_group!(
    sim_core,
    bench_cycle_loops,
    bench_engine_ns,
    bench_cold_grid
);
criterion_main!(sim_core);
