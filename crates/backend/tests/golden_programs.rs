//! Golden-program pin: every kernel × every preset, compiled with its
//! interpreter profile and default [`BackendOptions`], must encode to
//! exactly the bytes the backend produced when these constants were
//! recorded. Any change to lowering, scheduling, allocation or emission
//! that alters a single emitted bit shows up here.

use asip_backend::{compile_module, compile_module_scalar, BackendOptions};
use asip_ir::interp::{Interp, InterpOptions};
use asip_ir::passes::{optimize, OptConfig};
use asip_isa::codec::{Codec, Writer};
use asip_isa::{MachineDescription, TargetKind};

/// FNV-1a over the codec bytes of all programs, in grid order.
const GOLDEN_DIGEST: u64 = 0xbde2_46f1_a24f_9f02;
/// Spill slots summed over the grid.
const GOLDEN_SPILL_SLOTS: u64 = 649;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn every_kernel_on_every_preset_compiles_to_the_golden_bytes() {
    let opts = BackendOptions::default();
    let machines = MachineDescription::all_presets();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut spill_slots = 0u64;
    let mut cells = 0;
    for w in asip_workloads::all() {
        let mut module = asip_tinyc::compile(&w.source).unwrap();
        optimize(&mut module, &OptConfig::default());
        let mut interp = Interp::new(&module, InterpOptions::default());
        for (name, data) in &w.inputs {
            interp.write_global(name, data);
        }
        let profile = interp.run("main", &w.args).unwrap().profile;
        for m in &machines {
            let mut out = Writer::new();
            let slots = match m.target {
                TargetKind::Vliw => {
                    let p = compile_module(&module, m, Some(&profile), &opts).unwrap();
                    p.encode(&mut out);
                    p.stats.spill_slots
                }
                TargetKind::Scalar => {
                    let p = compile_module_scalar(&module, m, Some(&profile), &opts).unwrap();
                    p.encode(&mut out);
                    p.stats.spill_slots
                }
            };
            digest = fnv1a(digest, &out.into_bytes());
            spill_slots += u64::from(slots);
            cells += 1;
        }
    }
    assert_eq!(cells, 144);
    assert_eq!(
        (format!("{digest:016x}"), spill_slots),
        (format!("{GOLDEN_DIGEST:016x}"), GOLDEN_SPILL_SLOTS)
    );
}
