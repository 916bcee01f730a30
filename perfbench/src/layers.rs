//! The traced run: per-layer numbers, from spans the benchmark records
//! around its own calls into each layer.
//!
//! Every iteration runs four passes over the workload's cells:
//!
//! * **A** — an untraced `eval_batch` with [`WORKERS`] workers, the
//!   denominator of the parallel efficiency;
//! * **B** — an untraced single-worker `eval_batch`, whose cache counter
//!   deltas are the exact counts (one worker, so no racing recomputes)
//!   and whose wall time is the base of the tracing overhead;
//! * **C** — the same cells replayed one by one through the public stage
//!   calls `Toolchain::parse → frontend → profile → compile_for →
//!   run_artifact`, each under a span that records whether the call hit
//!   memory, hit disk or computed. Every replayed cell must encode to the
//!   same bytes as the `eval_batch` outcome;
//! * **D** — for every stage call that computed in C, the layer it ran is
//!   replayed through its public sub-functions under its own spans (the
//!   VLIW backend loop sub-stage by sub-stage), and each replayed result
//!   must equal what the stage call returned.

use crate::bench::{self, Bench, Counts, Tally, COUNT_NAMES, WORKERS};
use crate::stats::{least_squares, median};
use asip_backend::{
    cluster, compile_module_scalar, emit, lir, regalloc, sched, trace, BackendError,
    BackendOptions, BackendStats, CompiledProgram,
};
use asip_core::{
    CompiledArtifact, EvalOutcome, EvalRequest, EvalRun, Toolchain, ToolchainError, WorkloadRun,
};
use asip_ir::interp::{Interp, InterpOptions};
use asip_ir::{FuncId, Module, Profile};
use asip_isa::codec::Codec;
use asip_isa::{MachineDescription, TargetKind};
use asip_sim::{BlockScalar, BlockVliw};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// How a stage call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    None,
    Computed,
    Memory,
    Disk,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub served: Served,
}

/// An in-memory span recorder for one thread. Spans nest by a stack;
/// each carries the id of the cell it belongs to.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, cell: u32) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            served: Served::None,
        });
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].dur_ns = self.now_ns() - self.spans[idx].start_ns;
    }

    pub fn time<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, cell);
        let out = f();
        self.exit(idx);
        out
    }

    /// Each span's duration minus the durations of its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// The spans as Chrome trace-event JSON, one event per span.
    pub fn chrome_json(&self, labels: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let served = match s.served {
                Served::None => "",
                Served::Computed => "computed",
                Served::Memory => "memory",
                Served::Disk => "disk",
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"cell\":{},\"label\":\"{}\",\"served\":\"{served}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.cell,
                labels.get(s.cell as usize).map_or("", String::as_str),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The stages in cache-counter order (see [`COUNT_NAMES`]).
const STAGES: [&str; 5] = ["parse", "optimize", "profile", "compile", "simulate"];
const STAGE_SPANS: [&str; 5] = [
    "stage.parse",
    "stage.optimize",
    "stage.profile",
    "stage.compile",
    "stage.simulate",
];

/// What one replayed cell produced, kept for the layer replay (D).
struct Replayed {
    parsed: Module,
    module: Module,
    profile: Option<Profile>,
    compiled: CompiledArtifact,
    run: WorkloadRun,
    computed: [bool; 5],
}

/// What a stage call's classification reads: per-stage compute time
/// (it grows only when a stage computes) and memory-tier hits. Both are
/// atomics, unlike the full cache stats, which scan a disk tier.
type Probe = ([u64; 5], u64);

fn probe(tc: &Toolchain) -> Probe {
    let mem = &tc.cache().tiers()[0];
    debug_assert_eq!(mem.label(), "mem");
    (tc.stage_times().ns, mem.stats().hits)
}

/// Run one stage call under its span and classify it: computed, served
/// by the memory tier, or served by the disk tier.
fn stage<T>(
    tr: &mut Tracer,
    tc: &Toolchain,
    st: usize,
    cell: u32,
    seen: &mut Probe,
    computed: &mut [bool; 5],
    f: impl FnOnce() -> Result<T, ToolchainError>,
) -> Result<T, ToolchainError> {
    let idx = tr.enter(STAGE_SPANS[st], cell);
    let out = f();
    tr.exit(idx);
    let now = probe(tc);
    tr.spans[idx].served = if now.0[st] > seen.0[st] {
        computed[st] = true;
        Served::Computed
    } else if now.1 > seen.1 {
        Served::Memory
    } else {
        Served::Disk
    };
    *seen = now;
    out
}

/// C: one cell through the public stage calls, mirroring
/// `Session::eval` for a request without an ISE budget.
fn replay_cell(
    tc: &Toolchain,
    req: &EvalRequest,
    cell: u32,
    tr: &mut Tracer,
) -> Result<Replayed, ToolchainError> {
    let (w, m) = (&req.workload, &req.machine);
    let mut seen = probe(tc);
    let mut computed = [false; 5];
    let parsed = stage(tr, tc, 0, cell, &mut seen, &mut computed, || {
        tc.parse(&w.source)
    })?;
    let module = stage(tr, tc, 1, cell, &mut seen, &mut computed, || {
        tc.frontend(&w.source)
    })?;
    let profile = if tc.profile_guided {
        Some(stage(tr, tc, 2, cell, &mut seen, &mut computed, || {
            tc.profile(&module, &w.inputs, &w.args)
        })?)
    } else {
        None
    };
    let compiled = stage(tr, tc, 3, cell, &mut seen, &mut computed, || {
        tc.compile_for(&module, m, profile.as_ref())
    })?;
    let run = stage(tr, tc, 4, cell, &mut seen, &mut computed, || {
        tc.run_artifact(w, m, &compiled)
    })?;
    Ok(Replayed {
        parsed,
        module,
        profile,
        compiled,
        run,
        computed,
    })
}

/// Work counts of the layer replay (exact).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Work {
    sched_rounds: u64,
    spill_slots: u64,
    code_bytes: u64,
    sim_cycles: u64,
}

/// One register-allocation attempt: the schedule with registers applied,
/// or the virtual registers to spill.
fn allocate(
    s: sched::ScheduledFunc,
    lf: &lir::LFunc,
    machine: &MachineDescription,
    homes: &cluster::Homes,
    spill_temps: &BTreeSet<asip_ir::inst::VReg>,
) -> Result<Result<sched::ScheduledFunc, Vec<asip_ir::inst::VReg>>, regalloc::AllocError> {
    Ok(
        match regalloc::try_allocate(&s, lf, machine, homes, spill_temps)? {
            regalloc::AllocOutcome::Assigned(map) => {
                let mut s = s;
                regalloc::apply_assignment(&mut s, &map);
                Ok(s)
            }
            regalloc::AllocOutcome::Spill(spilled) => Err(spilled),
        },
    )
}

/// The VLIW backend loop of `compile_module`, sub-stage by sub-stage
/// (the same calls in the same order as the backend's own driver).
/// Returns the compiled program and the number of schedule rounds.
fn replay_backend(
    module: &Module,
    machine: &MachineDescription,
    profile: Option<&Profile>,
    opts: &BackendOptions,
    tr: &mut Tracer,
    cell: u32,
) -> Result<(CompiledProgram, u64), BackendError> {
    let mut lm = tr.time("backend.lower", cell, || {
        lir::lower_module(module, machine, "main")
    })?;
    let mut scheduled = Vec::with_capacity(lm.funcs.len());
    let mut traces_formed = 0;
    let mut rounds = 0u64;
    for fi in 0..lm.funcs.len() {
        let lf = &mut lm.funcs[fi];
        tr.time("backend.superblocks", cell, || {
            if opts.superblocks {
                let counts: Vec<u64> = match profile {
                    Some(p) => (0..lf.blocks.len())
                        .map(|b| p.count(FuncId(fi as u32), asip_ir::BlockId(b as u32)))
                        .collect(),
                    None => Vec::new(),
                };
                traces_formed += trace::form_superblocks(lf, &counts, &opts.trace);
            } else {
                trace::remove_unreachable(lf);
            }
        });
        let mut spill_temps = BTreeSet::new();
        let mut done = None;
        let mut sequential = false;
        let mut round = 0;
        while round < opts.max_spill_rounds {
            round += 1;
            rounds += 1;
            let homes = tr.time("backend.cluster", cell, || {
                cluster::assign_clusters(lf, machine)
            });
            let s = tr.time("backend.schedule", cell, || {
                if sequential {
                    sched::schedule_function_sequential(lf, machine, &homes)
                } else {
                    sched::schedule_function(lf, machine, &homes)
                }
            })?;
            let alloc = tr.time("backend.regalloc", cell, || {
                allocate(s, lf, machine, &homes, &spill_temps)
            });
            match alloc {
                Ok(Ok(s)) => {
                    done = Some(s);
                    break;
                }
                Ok(Err(spilled)) => tr.time("backend.spill", cell, || {
                    regalloc::rewrite_spills(lf, &spilled, &mut spill_temps)
                }),
                Err(e) => {
                    if sequential {
                        return Err(e.into());
                    }
                    sequential = true; // restart in degraded mode
                    round = 0;
                }
            }
        }
        let s = match done {
            Some(s) => s,
            None if !sequential => {
                // One last chance in degraded mode.
                rounds += 1;
                let homes = tr.time("backend.cluster", cell, || {
                    cluster::assign_clusters(lf, machine)
                });
                let s = tr.time("backend.schedule", cell, || {
                    sched::schedule_function_sequential(lf, machine, &homes)
                })?;
                let alloc = tr.time("backend.regalloc", cell, || {
                    allocate(s, lf, machine, &homes, &spill_temps)
                })?;
                alloc.map_err(|_| BackendError::SpillDivergence {
                    func: lf.name.clone(),
                })?
            }
            None => {
                return Err(BackendError::SpillDivergence {
                    func: lf.name.clone(),
                })
            }
        };
        scheduled.push(s);
    }
    let compiled = tr.time("backend.emit", cell, || {
        let program = emit::emit_program(module, &lm, &scheduled, machine);
        let bundles = program.len();
        let ops = program.total_ops();
        let width = machine.issue_width().max(1);
        let stats = BackendStats {
            bundles,
            ops,
            occupancy: if bundles == 0 {
                0.0
            } else {
                ops as f64 / (bundles * width) as f64
            },
            spill_slots: lm.funcs.iter().map(|f| f.spill_slots).sum(),
            traces_formed,
        };
        CompiledProgram { program, stats }
    });
    Ok((compiled, rounds))
}

/// D: replay every layer whose stage call computed in C, and check that
/// each replayed result equals what the stage returned.
fn replay_layers(
    tc: &Toolchain,
    req: &EvalRequest,
    rep: &Replayed,
    cell: u32,
    tr: &mut Tracer,
    work: &mut Work,
    sim_points: &mut Vec<(f64, f64)>,
) -> Result<(), String> {
    let (w, m) = (&req.workload, &req.machine);
    let same = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("replayed {what} differs from the stage call's"))
        }
    };
    if rep.computed[0] {
        let parsed = tr.time("tinyc.parse", cell, || asip_tinyc::compile(&w.source));
        same(parsed.as_ref() == Ok(&rep.parsed), "parse")?;
    }
    if rep.computed[1] {
        let mut module = rep.parsed.clone();
        tr.time("ir.optimize", cell, || {
            asip_ir::passes::optimize(&mut module, &tc.opt)
        });
        same(module == rep.module, "optimized module")?;
    }
    if rep.computed[2] {
        let profile = tr.time("ir.interp", cell, || {
            let mut interp = Interp::new(&rep.module, InterpOptions::default());
            for (name, data) in &w.inputs {
                interp.write_global(name, data);
            }
            interp.run("main", &w.args).map(|r| r.profile)
        });
        same(profile.ok() == rep.profile, "profile")?;
    }
    let guided = rep.profile.as_ref().filter(|_| tc.profile_guided);
    if rep.computed[3] {
        match m.target {
            TargetKind::Vliw => {
                let idx = tr.enter("backend.compile", cell);
                let out = replay_backend(&rep.module, m, guided, &tc.backend, tr, cell);
                tr.exit(idx);
                let (p, rounds) = out.map_err(|e| format!("backend replay: {e}"))?;
                same(Some(&p) == rep.compiled.vliw(), "VLIW program")?;
                work.sched_rounds += rounds;
                work.spill_slots += u64::from(p.stats.spill_slots);
            }
            TargetKind::Scalar => {
                let p = tr.time("backend.compile_scalar", cell, || {
                    compile_module_scalar(&rep.module, m, guided, &tc.backend)
                });
                let p = p.map_err(|e| format!("scalar compile: {e}"))?;
                same(Some(&p) == rep.compiled.scalar(), "scalar program")?;
                work.spill_slots += u64::from(p.stats.spill_slots);
            }
        }
        work.code_bytes += u64::from(rep.compiled.code_bytes(m));
    }
    if rep.computed[4] {
        let r = match &rep.compiled {
            CompiledArtifact::Vliw(p) => {
                let e = tr.time("sim.prepare", cell, || BlockVliw::new(m, &p.program));
                let e = e.map_err(|e| format!("prepare: {e}"))?;
                tr.time("sim.run", cell, || {
                    e.run_with_inputs(&w.inputs, &w.args, tc.sim)
                })
            }
            CompiledArtifact::Scalar(p) => {
                let e = tr.time("sim.prepare", cell, || BlockScalar::new(m, &p.program));
                let e = e.map_err(|e| format!("prepare: {e}"))?;
                tr.time("sim.run", cell, || {
                    e.run_with_inputs(&w.inputs, &w.args, tc.sim)
                })
            }
        };
        let run_ns = tr.spans.last().map_or(0, |s| s.dur_ns);
        let r = r.map_err(|e| format!("simulation: {e}"))?;
        same(r == rep.run.sim, "simulation result")?;
        work.sim_cycles += r.cycles;
        sim_points.push((r.cycles as f64, run_ns as f64));
    }
    Ok(())
}

/// Everything one traced iteration measured.
struct Iteration {
    a_secs: f64,
    b_secs: f64,
    b_counts: Counts,
    b_resident: u64,
    c_secs: f64,
    open_ms: Option<f64>,
    tracer: Tracer,
    work: Work,
    sim_points: Vec<(f64, f64)>,
}

fn iteration(b: &Bench, tally: &mut Tally) -> Iteration {
    let a = b.pass(WORKERS);
    b.check(&a.outcomes, tally);
    let one = b.pass(1);
    b.check(&one.outcomes, tally);

    let mut tr = Tracer::new();
    let start = Instant::now();
    let session = b.pass_session(1);
    let open_ms = (b.kind == bench::Kind::DiskWarm).then(|| start.elapsed().as_secs_f64() * 1e3);
    let tc = session.toolchain();
    let mut replays = Vec::with_capacity(b.reqs.len());
    for (i, req) in b.reqs.iter().enumerate() {
        let idx = tr.enter("cell", i as u32);
        let r = replay_cell(tc, req, i as u32, &mut tr);
        tr.exit(idx);
        replays.push(r);
    }
    let c_secs = start.elapsed().as_secs_f64();

    let mut work = Work::default();
    let mut sim_points = Vec::new();
    for (i, (req, rep)) in b.reqs.iter().zip(&replays).enumerate() {
        tally.attempted += 1;
        let cell = format!("{}@{}", req.workload.name, req.machine.name);
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                tally.fail(format!("{cell}: replay failed: {e}"));
                continue;
            }
        };
        let outcome = EvalOutcome {
            workload: req.workload.name.clone(),
            machine: req.machine.name.clone(),
            result: Ok(EvalRun {
                run: rep.run.clone(),
                machine: req.machine.clone(),
                ise: None,
            }),
        };
        if outcome.encode_to_vec() != b.reference(i) {
            tally.fail(format!("{cell}: replayed outcome differs from eval_batch"));
            continue;
        }
        if let Err(e) = replay_layers(tc, req, rep, i as u32, &mut tr, &mut work, &mut sim_points) {
            tally.fail(format!("{cell}: {e}"));
        }
    }
    Iteration {
        a_secs: a.secs,
        b_secs: one.secs,
        b_counts: one.counts,
        b_resident: one.resident_bytes,
        c_secs,
        open_ms,
        tracer: tr,
        work,
        sim_points,
    }
}

/// Per-layer metric names and units, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("tinyc.parse_ms", "ms"),
    ("ir.optimize_ms", "ms"),
    ("ir.interp_ms", "ms"),
    ("backend.compile_ms", "ms"),
    ("backend.lower_ms", "ms"),
    ("backend.superblocks_ms", "ms"),
    ("backend.cluster_ms", "ms"),
    ("backend.schedule_ms", "ms"),
    ("backend.regalloc_ms", "ms"),
    ("backend.spill_ms", "ms"),
    ("backend.emit_ms", "ms"),
    ("backend.compile_scalar_ms", "ms"),
    ("backend.attributed_pct", "%"),
    ("backend.sched_rounds", "count"),
    ("backend.spill_slots", "count"),
    ("backend.code_bytes", "bytes"),
    ("sim.prepare_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.run_mcycles_per_s", "Mcycles/s"),
    ("sim.fixed_us_per_run", "us"),
    ("sim.ns_per_cycle", "ns"),
    ("cache.hit_us_p50.parse", "us"),
    ("cache.hit_us_p50.optimize", "us"),
    ("cache.hit_us_p50.profile", "us"),
    ("cache.hit_us_p50.compile", "us"),
    ("cache.hit_us_p50.simulate", "us"),
    ("cache.hits.parse", "count"),
    ("cache.hits.optimize", "count"),
    ("cache.hits.profile", "count"),
    ("cache.hits.compile", "count"),
    ("cache.hits.simulate", "count"),
    ("cache.misses.parse", "count"),
    ("cache.misses.optimize", "count"),
    ("cache.misses.profile", "count"),
    ("cache.misses.compile", "count"),
    ("cache.misses.simulate", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mib", "MiB"),
    ("cache.disk.open_ms", "ms"),
    ("cache.disk.hit_us_p50", "us"),
    ("cache.disk.loads", "count"),
    ("cache.disk.hits", "count"),
    ("cache.disk.stale_drops", "count"),
    ("session.cell_ms_p50", "ms"),
    ("session.cell_ms_max", "ms"),
    ("session.stage_attributed_pct", "%"),
    ("session.parallel_efficiency", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// Layer spans whose summed self time is reported as `<name>_ms`.
const LAYER_SPANS: [&str; 13] = [
    "tinyc.parse",
    "ir.optimize",
    "ir.interp",
    "backend.lower",
    "backend.superblocks",
    "backend.cluster",
    "backend.schedule",
    "backend.regalloc",
    "backend.spill",
    "backend.emit",
    "backend.compile_scalar",
    "sim.prepare",
    "sim.run",
];

/// Share of a parent's time its named children must cover.
pub const MIN_ATTRIBUTION_PCT: f64 = 90.0;

/// Run traced iterations for `seconds` and reduce them to the per-layer
/// metrics. The first iteration only warms the process up (allocator,
/// page cache): its outcomes and counts are checked, its times dropped.
/// At least two more follow, so that counts can be compared.
pub fn run(b: &Bench, seconds: f64, tally: &mut Tally) -> (BTreeMap<String, f64>, String) {
    let labels: Vec<String> = b
        .reqs
        .iter()
        .map(|r| format!("{}@{}", r.workload.name, r.machine.name))
        .collect();
    let start = Instant::now();
    let mut its: Vec<Iteration> = Vec::new();
    while its.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        its.push(iteration(b, tally));
    }

    // Exact counts must repeat in every iteration.
    let first = &its[0];
    for it in &its[1..] {
        for (i, name) in COUNT_NAMES.iter().enumerate() {
            let (x, y) = (first.b_counts[i], it.b_counts[i]);
            tally.check(x == y, || {
                format!("{name} changed between passes: {x} vs {y}")
            });
        }
        tally.check(it.work == first.work, || {
            format!(
                "layer work counts changed: {:?} vs {:?}",
                first.work, it.work
            )
        });
        tally.check(it.b_resident == first.b_resident, || {
            "resident cache bytes changed between passes".to_string()
        });
    }

    let its = &its[1..];
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let per_iter = |f: &dyn Fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;

    // Layer self times, summed per iteration.
    for name in LAYER_SPANS {
        let own = per_iter(&|it| {
            let own = it.tracer.self_ns();
            let spans = it.tracer.spans.iter().zip(&own);
            ms(spans.filter(|(s, _)| s.name == name).map(|(_, &o)| o).sum())
        });
        m.insert(format!("{name}_ms"), own);
    }
    let total = |it: &Iteration, name: &str| -> u64 {
        it.tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    };
    m.insert(
        "backend.compile_ms".into(),
        per_iter(&|it| ms(total(it, "backend.compile") + total(it, "backend.compile_scalar"))),
    );

    // Attribution: named backend sub-stages inside VLIW compiles, and
    // stage calls inside cells.
    let covered = |it: &Iteration, parent: &str| -> (u64, u64) {
        let sp = &it.tracer.spans;
        let whole = total(it, parent);
        let kids = sp
            .iter()
            .filter(|s| s.parent.is_some_and(|p| sp[p].name == parent))
            .map(|s| s.dur_ns)
            .sum();
        (kids, whole)
    };
    let pct = |parent: &'static str| {
        let (k, w): (u64, u64) = its
            .iter()
            .map(|it| covered(it, parent))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        if w == 0 {
            100.0
        } else {
            100.0 * k as f64 / w as f64
        }
    };
    let backend_pct = pct("backend.compile");
    let stage_pct = pct("cell");
    tally.check(backend_pct >= MIN_ATTRIBUTION_PCT, || {
        format!("backend sub-stages cover only {backend_pct:.1}% of VLIW compile time")
    });
    tally.check(stage_pct >= MIN_ATTRIBUTION_PCT, || {
        format!("stage calls cover only {stage_pct:.1}% of cell time")
    });
    m.insert("backend.attributed_pct".into(), backend_pct);
    m.insert("session.stage_attributed_pct".into(), stage_pct);

    let w = &first.work;
    m.insert("backend.sched_rounds".into(), w.sched_rounds as f64);
    m.insert("backend.spill_slots".into(), w.spill_slots as f64);
    m.insert("backend.code_bytes".into(), w.code_bytes as f64);
    m.insert("sim.cycles".into(), w.sim_cycles as f64);
    let run_ms = m["sim.run_ms"];
    m.insert(
        "sim.run_mcycles_per_s".into(),
        if run_ms > 0.0 {
            w.sim_cycles as f64 / (run_ms * 1e3)
        } else {
            0.0
        },
    );
    // The fixed/per-cycle split is fitted over the cold grid's cells, whose
    // cycle counts span two orders of magnitude; the long kernels all run
    // for similar lengths, which leaves the fit undetermined.
    let points: Vec<(f64, f64)> = its.iter().flat_map(|it| it.sim_points.clone()).collect();
    let (fixed_ns, per_cycle) = match b.kind {
        bench::Kind::Cold => least_squares(&points).unwrap_or((0.0, 0.0)),
        _ => (0.0, 0.0),
    };
    m.insert("sim.fixed_us_per_run".into(), fixed_ns / 1e3);
    m.insert("sim.ns_per_cycle".into(), per_cycle);

    // Cache: stage-call latency when served, pooled over iterations.
    let served_p50 = |keep: &dyn Fn(&Span) -> bool| -> f64 {
        let xs: Vec<f64> = its
            .iter()
            .flat_map(|it| it.tracer.spans.iter())
            .filter(|s| keep(s))
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        median(&xs)
    };
    for (st, name) in STAGES.iter().enumerate() {
        let hit = served_p50(&|s| s.name == STAGE_SPANS[st] && s.served != Served::Computed);
        m.insert(format!("cache.hit_us_p50.{name}"), hit);
    }
    m.insert(
        "cache.disk.hit_us_p50".into(),
        served_p50(&|s| s.served == Served::Disk),
    );
    for (i, name) in COUNT_NAMES.iter().enumerate() {
        m.insert(name.to_string(), first.b_counts[i] as f64);
    }
    m.insert(
        "cache.resident_mib".into(),
        first.b_resident as f64 / (1024.0 * 1024.0),
    );
    let opens: Vec<f64> = its.iter().filter_map(|it| it.open_ms).collect();
    m.insert("cache.disk.open_ms".into(), median(&opens));

    // Session: cell times from the replay, efficiency against pass A.
    let cells: Vec<f64> = its
        .iter()
        .flat_map(|it| it.tracer.spans.iter())
        .filter(|s| s.name == "cell")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    m.insert("session.cell_ms_p50".into(), median(&cells));
    m.insert(
        "session.cell_ms_max".into(),
        per_iter(&|it| {
            it.tracer
                .spans
                .iter()
                .filter(|s| s.name == "cell")
                .map(|s| s.dur_ns as f64 / 1e6)
                .fold(0.0, f64::max)
        }),
    );
    let cell_sum = per_iter(&|it| ms(total(it, "cell")));
    let a_ms = per_iter(&|it| it.a_secs * 1e3);
    m.insert(
        "session.parallel_efficiency".into(),
        cell_sum / (WORKERS as f64 * a_ms),
    );
    m.insert(
        "obs.trace_overhead_pct".into(),
        per_iter(&|it| 100.0 * (it.c_secs / it.b_secs - 1.0)),
    );

    let last = its.last().expect("at least two iterations");
    (m, last.tracer.chrome_json(&labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        let a = tr.enter("a", 0);
        let b = tr.enter("b", 0);
        let c = tr.enter("c", 0);
        tr.exit(c);
        tr.exit(b);
        tr.exit(a);
        tr.spans[a].dur_ns = 100;
        tr.spans[b].dur_ns = 60;
        tr.spans[c].dur_ns = 25;
        assert_eq!(tr.self_ns(), vec![40, 35, 25]);
    }

    #[test]
    fn backend_replay_matches_compile_module() {
        let w = asip_workloads::by_name("viterbi").unwrap();
        let module = asip_tinyc::compile(&w.source).unwrap();
        let opts = BackendOptions::default();
        for m in [MachineDescription::ember1(), MachineDescription::ember4x2()] {
            let want = asip_backend::compile_module(&module, &m, None, &opts).unwrap();
            let mut tr = Tracer::new();
            let (got, rounds) = replay_backend(&module, &m, None, &opts, &mut tr, 0).unwrap();
            assert_eq!(got, want, "{}", m.name);
            assert!(rounds >= 1);
            assert!(tr.stack.is_empty());
        }
    }

    #[test]
    fn every_metric_is_listed_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for (name, unit) in METRICS {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
