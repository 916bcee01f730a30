//! Outside-in benchmark of the ASIP toolchain.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_grid|warm_grid|disk_warm_grid|sim_long> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark drives the toolchain only through its public API, as a
//! closed loop: one batch at a time through `Session::eval_batch` with two
//! workers, the next pass starting when the previous one returns. Every
//! outcome is checked. With `--trace 0` it prints the end-to-end metrics
//! (tracing off); with `--trace 1` it runs the traced replay and prints
//! the per-layer metrics (see `layers.rs`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod bench;
mod inputs;
mod layers;
mod stats;

use bench::{Bench, Kind, Tally, WORKERS};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed passes per run: the tail needs ten passes beyond it.
const MIN_PASSES: usize = 11;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up once, print the time and digest, and exit: the child-process
    /// form `setup_s` is sampled in.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    Ok(Args {
        kind: kind.ok_or_else(|| format!("--workload is required: {}", workloads.join("|")))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// Remove every `ASIP_*` variable (engine, cache directory and budget,
/// thread count, superblock threshold, faults, tracing, shards) so that
/// only the explicit session configuration in `bench::builder` applies.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ASIP_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Set-up time of this workload in a new process of this program, with
/// the digest of its reference outcomes.
fn setup_in_child(a: &Args) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", a.kind.name(), "--seed", &a.seed.to_string()])
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(|l| {
        let (secs, digest) = l.strip_prefix("setup ")?.split_once(' ')?;
        Some((secs.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
    });
    match parsed {
        Some(p) if out.status.success() => Ok(p),
        _ => Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Set up once, then run timed passes for `seconds`. `setup_s` is the
/// median of [`SETUPS`] set-ups, each in a new process (so each pays what
/// a user's first evaluation pays, and none disturbs this process's memory
/// high-water mark), made at even intervals so that, like the passes, they
/// sample the whole run rather than one moment of it.
fn end_to_end(a: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let b = Bench::setup(a.kind, a.seed, tally)?;
    let digest = b.outcome_digest();
    if a.kind != Kind::SimLong {
        println!(
            "[check] cycles digest {:016x} (equal on every grid workload), outcome digest {digest:016x}",
            b.cycles_digest(),
        );
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut walls = Vec::new();
    let mut cycles = 0u64;
    let mut cells = 0usize;
    let mut first_counts = None;
    let start = Instant::now();
    while walls.len() < MIN_PASSES
        || setups.len() < SETUPS
        || start.elapsed().as_secs_f64() < a.seconds
    {
        let due = a.seconds * setups.len() as f64 / SETUPS as f64;
        if setups.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            let (secs, again) = setup_in_child(a)?;
            setups.push(secs);
            tally.check(again == digest, || {
                "a set-up in a new process produced different outcomes".to_string()
            });
        }
        let p = b.pass(WORKERS);
        b.check(&p.outcomes, tally);
        // Two workers may both compute a shared front-half artifact, so
        // only the per-cell stages (compile, simulate) repeat exactly here;
        // the traced run checks every counter with one worker.
        let exact = [3, 4, bench::MISSES + 3, bench::MISSES + 4].map(|i| p.counts[i]);
        let first = *first_counts.get_or_insert(exact);
        tally.check(exact == first, || {
            format!("compile/simulate counters changed between passes: {first:?} vs {exact:?}")
        });
        walls.push(p.secs * 1e3);
        cycles += p.cycles();
        cells += p.outcomes.len();
    }
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let tail = stats::tail(&walls, 10).expect("MIN_PASSES leaves ten beyond the tail");
    println!(
        "[passes] {} passes of {} cells; tail is p{:.2} over {} samples",
        walls.len(),
        b.reqs.len(),
        tail.percentile,
        tail.samples
    );
    Ok(vec![
        Metric {
            name: "cells_per_s",
            value: cells as f64 / total_s,
            unit: "1/s",
        },
        Metric {
            name: "pass_ms_p50",
            value: stats::median(&walls),
            unit: "ms",
        },
        Metric {
            name: "pass_ms_tail",
            value: tail.value,
            unit: "ms",
        },
        Metric {
            name: "sim_mcycles_per_s",
            value: cycles as f64 / total_s / 1e6,
            unit: "Mcycles/s",
        },
        Metric {
            name: "peak_rss_mib",
            value: stats::peak_rss_mib().ok_or("cannot read VmHWM")?,
            unit: "MiB",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&setups),
            unit: "s",
        },
    ])
}

/// Set up once, run the traced iterations, and write the last one's spans
/// as a Chrome trace next to the benchmark.
fn traced(a: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let b = Bench::setup(a.kind, a.seed, tally)?;
    let (values, chrome) = layers::run(&b, a.seconds, tally);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out.join(format!("trace-{}.json", a.kind.name()));
    match std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, chrome)) {
        Ok(()) => println!("[trace] spans of the last iteration: {}", path.display()),
        Err(e) => println!("[trace] could not write {}: {e}", path.display()),
    }
    Ok(layers::METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(f64::NAN),
            unit,
        })
        .collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cleared = scrub_env();
    if args.setup_only {
        let mut tally = Tally::default();
        let start = Instant::now();
        match Bench::setup(args.kind, args.seed, &mut tally) {
            Ok(b) if tally.failed == 0 => {
                println!(
                    "setup {} {:016x}",
                    start.elapsed().as_secs_f64(),
                    b.outcome_digest()
                );
                return;
            }
            Ok(_) => eprintln!("perfbench: {:?}", tally.notes),
            Err(e) => eprintln!("perfbench: {e}"),
        }
        std::process::exit(1);
    }
    let probe = bench::builder(args.kind).build();
    println!(
        "[env] workload {} seed {} seconds {} trace {} | engine {} | threads {} | cache budget {} MiB | nproc {} | cleared {:?}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        probe.toolchain().sim.engine,
        probe.threads(),
        probe.cache().byte_budget() / (1024 * 1024),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cleared,
    );
    drop(probe);

    let mut tally = Tally::default();
    let result = if args.trace {
        traced(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    let metrics = result.unwrap_or_else(|e| {
        tally.fail(e);
        Vec::new()
    });
    for m in &metrics {
        tally.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    for n in &tally.notes {
        eprintln!("perfbench: FAILED {n}");
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    for m in &metrics {
        println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<30} {:>16.4} share ({} of {} cells)",
        "failed_share", failed_share, tally.failed, tally.attempted
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
