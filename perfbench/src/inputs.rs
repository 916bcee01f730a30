//! Seeded inputs: the request order of the N×M grids and the generated
//! long-running kernels of `sim_long`, with their oracle outputs.

use asip_core::EvalRequest;
use asip_ir::interp::{Interp, InterpOptions};
use asip_isa::MachineDescription;
use asip_workloads::{AppArea, Workload};

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed` only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fa5_1b00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Every preset × every benchmark kernel (144 cells), in a seeded order.
pub fn grid_requests(seed: u64) -> Vec<EvalRequest> {
    let mut reqs = EvalRequest::grid(&MachineDescription::all_presets(), &asip_workloads::all());
    Rng::new(seed).shuffle(&mut reqs);
    reqs
}

/// A loop count near `base`: within ±2%, so seeds change the programs
/// but barely the amount of work, and runs on different seeds compare.
fn jitter(rng: &mut Rng, base: i64) -> i32 {
    rng.range(base - base / 50, base + base / 50) as i32
}

fn kernel(name: &str, source: String, n: i32, inputs: Vec<(String, Vec<i32>)>) -> Workload {
    Workload {
        name: name.to_string(),
        area: AppArea::Control,
        description: "generated long-running loop kernel".to_string(),
        source,
        args: vec![n],
        inputs,
        expected: Vec::new(),
    }
}

/// The `sim_long` kernels, shaped like the simulator's synthetic cases:
/// a tight one-block loop, a biased two-block loop, an ALU chain, a
/// 512-word memory stream and a nested loop. The seed picks the
/// constants, the stream's initial contents and the loop counts; the
/// control flow is fixed so the work per seed stays nearly the same.
/// `expected` is left empty: [`with_oracle`] fills it.
pub fn long_kernels(seed: u64) -> Vec<Workload> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    let tight = {
        let k = rng.range(1, 3);
        let src = format!(
            "void main(int n) {{ int s = 0; int i;
               for (i = 0; i < n; i++) {{ s += i ^ (s >> {k}); }}
               emit(s); }}"
        );
        kernel("tight", src, jitter(&mut rng, 240_000), vec![])
    };
    let biased = {
        let (k, c) = (rng.range(2, 4), 2 * rng.range(0, 4) + 1);
        let src = format!(
            "void main(int n) {{ int s = 0; int i;
               for (i = 0; i < n; i++) {{
                 if ((i & 15) != 0) {{ s += i; }} else {{ s ^= (s << {k}) + {c}; }}
               }}
               emit(s); }}"
        );
        kernel("biased", src, jitter(&mut rng, 200_000), vec![])
    };
    let alu = {
        let (a, k) = (2 * rng.range(1, 3) + 1, rng.range(1, 3));
        let src = format!(
            "void main(int n) {{ int a = 1; int b = 2; int s = 0; int i;
               for (i = 0; i < n; i++) {{
                 a = a * {a} + b;
                 b = b ^ (a >> {k});
                 s = s + min(a, b) - max(b, i);
                 s = s ^ (s << 1);
               }}
               emit(s); emit(a); emit(b); }}"
        );
        kernel("aluchain", src, jitter(&mut rng, 120_000), vec![])
    };
    let stream = {
        let (off, k) = (2 * rng.range(0, 127) + 1, rng.range(1, 4));
        let buf: Vec<i32> = (0..512).map(|_| rng.range(-1000, 1000) as i32).collect();
        let src = format!(
            "int buf[512];
             void main(int n) {{ int i; int s = 0;
               for (i = 0; i < n; i++) {{
                 int k = i & 511;
                 buf[k] = buf[(k + {off}) & 511] + i;
                 s += buf[k] >> {k};
               }}
               emit(s); emit(buf[7]); }}"
        );
        let n = jitter(&mut rng, 160_000);
        kernel("memstream", src, n, vec![("buf".to_string(), buf)])
    };
    let nested = {
        let mask = [127, 255, 511][rng.range(0, 2) as usize];
        let src = format!(
            "void main(int n) {{ int s = 0; int i; int j;
               for (i = 0; i < n; i++) {{
                 for (j = 0; j < 8; j++) {{ s += (i ^ j) & {mask}; }}
               }}
               emit(s); }}"
        );
        kernel("nested", src, jitter(&mut rng, 30_000), vec![])
    };
    vec![tight, biased, alu, stream, nested]
}

/// `w` with its expected output computed by the IR interpreter on the
/// *unoptimised* module: an oracle that shares no code with the
/// optimiser, backend or simulators under test.
pub fn with_oracle(mut w: Workload) -> Result<Workload, String> {
    let module = asip_tinyc::compile(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
    let mut interp = Interp::new(&module, InterpOptions::default());
    for (name, data) in &w.inputs {
        interp.write_global(name, data);
    }
    let r = interp
        .run("main", &w.args)
        .map_err(|e| format!("{}: {e}", w.name))?;
    w.expected = r.output;
    Ok(w)
}

/// The machines `sim_long` runs on: two VLIW and two scalar presets.
pub fn long_machines() -> Vec<MachineDescription> {
    vec![
        MachineDescription::ember1(),
        MachineDescription::ember4(),
        MachineDescription::scalar1(),
        MachineDescription::scalar2(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_depends_only_on_seed() {
        let a = grid_requests(1);
        assert_eq!(a.len(), 144);
        assert_eq!(a, grid_requests(1));
        assert_ne!(a, grid_requests(2));
    }

    #[test]
    fn kernels_depend_only_on_seed() {
        assert_eq!(long_kernels(3), long_kernels(3));
        assert_ne!(long_kernels(3), long_kernels(4));
    }
}
