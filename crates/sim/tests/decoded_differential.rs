//! Differential testing of the block-compiled engines
//! ([`asip_sim::block`]) against the preserved interpretive loops
//! ([`asip_sim::reference`]).
//!
//! The block engines must be **observationally identical**: every field
//! of [`SimResult`] — outputs, final memory, total cycles, interlock /
//! I-cache / branch stall counters, bundles and ops executed, and all
//! dynamic activity counters — must match the reference loops exactly, on
//! every preset of both target kinds × every workload kernel, and on
//! fuzzed machine configurations drawn from the customization space. The
//! block engines' guard-failure fallback to the cycle-exact slow path
//! (cold I-cache lines, in-flight writes, looming cycle limits, mid-block
//! entries) is pinned separately at the bottom of this file.

use asip_backend::{compile_module, compile_module_scalar, BackendOptions};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::{optimize, OptConfig};
use asip_ir::Module;
use asip_isa::{FuKind, ICacheConfig, MachineDescription, TargetKind};
use asip_sim::{
    reference, BlockScalar, BlockVliw, ScalarSimulator, SimEngine, SimOptions, SimResult, Simulator,
};
use asip_workloads::Workload;
use proptest::prelude::*;

fn frontend(w: &Workload) -> Module {
    let mut module = asip_tinyc::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    optimize(&mut module, &OptConfig::default());
    module
}

/// Interpreter profile, as the profile-guided production pipeline compiles.
fn profile(module: &Module, w: &Workload) -> Profile {
    let mut interp = Interp::new(module, InterpOptions::default());
    for (name, data) in &w.inputs {
        interp.write_global(name, data);
    }
    interp
        .run("main", &w.args)
        .unwrap_or_else(|e| panic!("profile {}: {e}", w.name))
        .profile
}

fn opts(engine: SimEngine) -> SimOptions {
    SimOptions {
        engine,
        ..SimOptions::default()
    }
}

/// Run one workload under one explicitly-selected engine for `machine`
/// (dispatching on its target kind) and return the result.
fn run_engine(machine: &MachineDescription, w: &Workload, engine: SimEngine) -> SimResult {
    let module = frontend(w);
    let prof = profile(&module, w);
    let prof = Some(&prof);
    match machine.target {
        TargetKind::Vliw => {
            let compiled = compile_module(&module, machine, prof, &BackendOptions::default())
                .unwrap_or_else(|e| panic!("compile {} on {}: {e}", w.name, machine.name));
            let mut sim = Simulator::new(machine, &compiled.program, opts(engine))
                .unwrap_or_else(|e| panic!("prepare {} on {}: {e}", w.name, machine.name));
            for (name, data) in &w.inputs {
                sim.write_global(name, data);
            }
            sim.run(&w.args)
                .unwrap_or_else(|e| panic!("{engine} {} on {}: {e}", w.name, machine.name))
        }
        TargetKind::Scalar => {
            let compiled =
                compile_module_scalar(&module, machine, prof, &BackendOptions::default())
                    .unwrap_or_else(|e| panic!("compile {} on {}: {e}", w.name, machine.name));
            let mut sim = ScalarSimulator::new(machine, &compiled.program, opts(engine))
                .unwrap_or_else(|e| panic!("prepare {} on {}: {e}", w.name, machine.name));
            for (name, data) in &w.inputs {
                sim.write_global(name, data);
            }
            sim.run(&w.args)
                .unwrap_or_else(|e| panic!("{engine} {} on {}: {e}", w.name, machine.name))
        }
    }
}

/// Run one workload through both engines for `machine` and return the
/// results as `(reference, block)`.
fn both_engines(machine: &MachineDescription, w: &Workload) -> (SimResult, SimResult) {
    (
        run_engine(machine, w, SimEngine::Reference),
        run_engine(machine, w, SimEngine::Block),
    )
}

/// Field-by-field identity of one engine against the reference, with
/// per-field messages so a divergence names the counter that moved rather
/// than dumping two whole results.
fn assert_fields(d: &SimResult, r: &SimResult, ctx: &str) {
    assert_eq!(d.output, r.output, "{ctx}: output");
    assert_eq!(d.cycles, r.cycles, "{ctx}: cycles");
    assert_eq!(
        d.interlock_stalls, r.interlock_stalls,
        "{ctx}: interlock_stalls"
    );
    assert_eq!(d.icache_stalls, r.icache_stalls, "{ctx}: icache_stalls");
    assert_eq!(d.branch_stalls, r.branch_stalls, "{ctx}: branch_stalls");
    assert_eq!(
        d.bundles_executed, r.bundles_executed,
        "{ctx}: bundles_executed"
    );
    assert_eq!(d.ops_executed, r.ops_executed, "{ctx}: ops_executed");
    assert_eq!(d.icache_misses, r.icache_misses, "{ctx}: icache_misses");
    assert_eq!(d.activity, r.activity, "{ctx}: activity counters");
    assert_eq!(d.memory, r.memory, "{ctx}: final memory");
    // Belt and braces: the whole struct (future fields included).
    assert_eq!(d, r, "{ctx}: SimResult");
}

/// Block ≡ reference, field by field.
fn assert_identical(machine: &MachineDescription, w: &Workload) {
    let (r, b) = both_engines(machine, w);
    let ctx = format!("{} on {}", w.name, machine.name);
    assert_fields(&b, &r, &format!("block, {ctx}"));
}

/// Every preset of both target kinds × every workload kernel: the block
/// engines reproduce the reference engines bit-for-bit.
#[test]
fn all_presets_all_kernels_identical() {
    for machine in MachineDescription::all_presets() {
        for w in asip_workloads::all() {
            assert_identical(&machine, &w);
        }
    }
}

/// Regression pin for the precomputed I-cache line table: per-fetch
/// miss/stall accounting is unchanged on every preset (including the
/// `Compact16` + small-cache shapes where line straddling matters).
#[test]
fn icache_accounting_unchanged_on_all_presets() {
    let ws = ["fir", "crc32", "sort"];
    for base in MachineDescription::all_presets() {
        let tiny = base.derive(&format!("{}-tinyic", base.name), |m| {
            m.icache = Some(ICacheConfig {
                size_bytes: 256,
                line_bytes: 16,
                ways: 1,
                miss_penalty: 11,
            });
            m.encoding = asip_isa::Encoding::Compact16;
        });
        for name in ws {
            let w = asip_workloads::by_name(name).unwrap();
            for machine in [&base, &tiny] {
                let (r, b) = both_engines(machine, &w);
                assert_eq!(
                    (b.icache_misses, b.icache_stalls),
                    (r.icache_misses, r.icache_stalls),
                    "block, {} on {}: icache accounting diverged",
                    w.name,
                    machine.name
                );
            }
        }
    }
}

/// Errors must shape-match too: the block engine reports the same
/// divide-by-zero / bad-args errors the reference engine does.
#[test]
fn error_paths_match_reference() {
    let src = "void main(int x) { emit(100 / x); }";
    let mut module = asip_tinyc::compile(src).unwrap();
    optimize(&mut module, &OptConfig::default());
    let m = MachineDescription::ember4();
    let compiled = compile_module(&module, &m, None, &BackendOptions::default()).unwrap();
    for args in [&[0i32][..], &[]] {
        let reference =
            reference::run_vliw_reference(&m, &compiled.program, &[], args, SimOptions::default())
                .unwrap_err();
        let err = Simulator::new(&m, &compiled.program, opts(SimEngine::Block))
            .unwrap()
            .run(args)
            .unwrap_err();
        assert_eq!(err, reference, "block error for args {args:?}");
    }
}

/// A randomized VLIW member: issue-slot count, latencies, branch penalty,
/// encoding and I-cache geometry drawn from the customization space.
#[allow(clippy::too_many_arguments)]
fn fuzzed_vliw(
    extra_slots: usize,
    lat_mul: u32,
    lat_mem: u32,
    lat_div: u32,
    branch_penalty: u32,
    encoding: u8,
    with_icache: bool,
    regs: u16,
) -> MachineDescription {
    let mut b = MachineDescription::builder("fuzzed-vliw");
    b.registers(regs)
        .lat_mul(lat_mul)
        .lat_mem(lat_mem)
        .lat_div(lat_div)
        .branch_penalty(branch_penalty)
        .encoding(match encoding % 3 {
            0 => asip_isa::Encoding::Uncompressed,
            1 => asip_isa::Encoding::StopBit,
            _ => asip_isa::Encoding::Compact16,
        });
    b.slot(&[
        FuKind::Alu,
        FuKind::Mul,
        FuKind::Mem,
        FuKind::Branch,
        FuKind::Custom,
    ]);
    for i in 0..extra_slots {
        if i % 2 == 0 {
            b.slot(&[FuKind::Alu, FuKind::Mul]);
        } else {
            b.slot(&[FuKind::Alu, FuKind::Mem]);
        }
    }
    if !with_icache {
        b.icache(None);
    } else {
        b.icache(Some(ICacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        }));
    }
    b.build().expect("fuzzed VLIW machine is valid")
}

/// The scalar fuzz space of `scalar_differential.rs`, reused here to pit
/// the engines against each other.
#[allow(clippy::too_many_arguments)]
fn fuzzed_scalar(
    dual_issue: bool,
    lat_mul: u32,
    lat_mem: u32,
    lat_div: u32,
    branch_penalty: u32,
    forwarding: bool,
    with_icache: bool,
    regs: u16,
) -> MachineDescription {
    let mut b = MachineDescription::builder("fuzzed-scalar");
    b.target(TargetKind::Scalar)
        .registers(regs)
        .lat_mul(lat_mul)
        .lat_mem(lat_mem)
        .lat_div(lat_div)
        .branch_penalty(branch_penalty)
        .forwarding(forwarding);
    if dual_issue {
        b.slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch]).slot(&[
            FuKind::Alu,
            FuKind::Mul,
            FuKind::Custom,
        ]);
    } else {
        b.slot(&[
            FuKind::Alu,
            FuKind::Mul,
            FuKind::Mem,
            FuKind::Branch,
            FuKind::Custom,
        ]);
    }
    if !with_icache {
        b.icache(None);
    } else {
        b.icache(Some(ICacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        }));
    }
    b.build().expect("fuzzed scalar machine is valid")
}

proptest! {
    /// Property: on a random kernel and a random VLIW machine, block and
    /// reference engines produce identical `SimResult`s.
    #[test]
    fn random_vliw_machines_identical(
        kernel in 0usize..17,
        extra_slots in 0usize..4,
        lat_mul in 1u32..5,
        lat_mem in 1u32..5,
        lat_div in 2u32..14,
        branch_penalty in 0u32..4,
        encoding in 0u8..3,
        with_icache in any::<bool>(),
        regs in 12u16..48,
    ) {
        let workloads = asip_workloads::all();
        let w = &workloads[kernel % workloads.len()];
        let m = fuzzed_vliw(
            extra_slots,
            lat_mul,
            lat_mem,
            lat_div,
            branch_penalty,
            encoding,
            with_icache,
            regs,
        );
        assert_identical(&m, w);
    }

    /// Property: on a random kernel and a random scalar machine, block and
    /// reference engines produce identical `SimResult`s.
    #[test]
    fn random_scalar_machines_identical(
        kernel in 0usize..17,
        dual_issue in any::<bool>(),
        lat_mul in 1u32..5,
        lat_mem in 1u32..5,
        lat_div in 2u32..14,
        branch_penalty in 0u32..4,
        forwarding in any::<bool>(),
        with_icache in any::<bool>(),
        regs in 12u16..48,
    ) {
        let workloads = asip_workloads::all();
        let w = &workloads[kernel % workloads.len()];
        let m = fuzzed_scalar(
            dual_issue,
            lat_mul,
            lat_mem,
            lat_div,
            branch_penalty,
            forwarding,
            with_icache,
            regs,
        );
        assert_identical(&m, w);
    }
}

/// The block engines' guard-failure fallback must actually be exercised
/// and stay exact: on an I-cached machine, every *first* visit to a block
/// finds cold lines, fails the residency probe and takes the slow path
/// (the cycle-exact loop body, one pc at a time), while hot revisits run as
/// superops — and the result is still bit-identical to the reference.
#[test]
fn block_vliw_fallback_slow_path_exercised() {
    let m = MachineDescription::ember4().derive("ember4-tinyic", |m| {
        m.icache = Some(ICacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        });
    });
    let w = asip_workloads::by_name("fir").unwrap();
    let module = frontend(&w);
    let compiled = compile_module(&module, &m, None, &BackendOptions::default()).unwrap();
    let block = BlockVliw::new(&m, &compiled.program).unwrap();
    let got = block
        .run_with_inputs(&w.inputs, &w.args, SimOptions::default())
        .unwrap();
    assert!(
        block.slow_bundles() > 0,
        "cold I-cache lines must exercise the slow path"
    );
    assert!(
        block.fast_blocks() > 0,
        "hot blocks must still dispatch as superops"
    );
    let r = reference::run_vliw_reference(
        &m,
        &compiled.program,
        &w.inputs,
        &w.args,
        SimOptions::default(),
    )
    .unwrap();
    assert_fields(&got, &r, "block fallback, fir on ember4-tinyic");
}

/// Same fallback pin for the scalar block engine, via its `slow_insts`
/// counter.
#[test]
fn block_scalar_fallback_slow_path_exercised() {
    let base = MachineDescription::all_presets()
        .into_iter()
        .find(|m| m.target == TargetKind::Scalar)
        .expect("at least one scalar preset");
    let m = base.derive(&format!("{}-tinyic", base.name), |m| {
        m.icache = Some(ICacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        });
    });
    let w = asip_workloads::by_name("fir").unwrap();
    let module = frontend(&w);
    let compiled = compile_module_scalar(&module, &m, None, &BackendOptions::default()).unwrap();
    let block = BlockScalar::new(&m, &compiled.program).unwrap();
    let got = block
        .run_with_inputs(&w.inputs, &w.args, SimOptions::default())
        .unwrap();
    assert!(
        block.slow_insts() > 0,
        "cold I-cache lines must exercise the slow path"
    );
    assert!(
        block.fast_blocks() > 0,
        "hot blocks must still dispatch as superops"
    );
    let r = reference::run_scalar_reference(
        &m,
        &compiled.program,
        &w.inputs,
        &w.args,
        SimOptions::default(),
    )
    .unwrap();
    assert_fields(&got, &r, "block fallback, fir on scalar tinyic");
}

/// Near the cycle limit the block engine's conservative `last_issue`
/// entry guard must hand over to the slow path, and both engines must
/// agree on exactly where `CycleLimit` trips.
#[test]
fn block_cycle_limit_matches_reference() {
    let w = asip_workloads::by_name("fir").unwrap();
    let m = MachineDescription::ember4();
    let module = frontend(&w);
    let compiled = compile_module(&module, &m, None, &BackendOptions::default()).unwrap();
    let run = |engine: SimEngine, max_cycles: u64| {
        let mut sim = Simulator::new(
            &m,
            &compiled.program,
            SimOptions {
                max_cycles,
                ..opts(engine)
            },
        )
        .unwrap();
        for (name, data) in &w.inputs {
            sim.write_global(name, data);
        }
        sim.run(&w.args)
    };
    let full = run(SimEngine::Reference, SimOptions::default().max_cycles)
        .expect("fir completes under the default limit");
    for max_cycles in [
        full.cycles / 2,
        full.cycles - 1,
        full.cycles,
        full.cycles + 1,
    ] {
        let b = run(SimEngine::Block, max_cycles);
        let r = run(SimEngine::Reference, max_cycles);
        assert_eq!(b, r, "block vs reference at max_cycles={max_cycles}");
    }
}
