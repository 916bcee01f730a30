//! The persistent disk tier, exercised through the `asip` facade exactly
//! as a long DSE campaign would use it: warm-start determinism (a cold
//! `Session` pointed at a warm `ASIP_CACHE_DIR` produces byte-identical
//! `eval_batch` results while skipping the whole front half) and
//! corruption tolerance (truncated files, garbage bytes, wrong format
//! versions and key-mismatched entries each cause a counted, silent
//! recompute — never a panic or a wrong artifact).

use asip::core::{EvalRequest, Session};
use asip::isa::MachineDescription;
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh, empty cache directory unique to this test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-diskcache-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cross(machines: &[MachineDescription], workloads: &[&str]) -> Vec<EvalRequest> {
    workloads
        .iter()
        .flat_map(|w| {
            let w = asip::workloads::by_name(w).unwrap();
            machines
                .iter()
                .map(move |m| EvalRequest::new(w.clone(), m.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn requests() -> Vec<EvalRequest> {
    cross(
        &[
            MachineDescription::ember1(),
            MachineDescription::ember4(),
            MachineDescription::scalar2(),
        ],
        &["fir", "crc32", "rle"],
    )
}

/// A smaller grid for the corruption scenarios (each runs three sessions).
fn small_requests() -> Vec<EvalRequest> {
    cross(
        &[MachineDescription::ember1(), MachineDescription::scalar1()],
        &["fir", "crc32"],
    )
}

fn disk_session(dir: &Path) -> Session {
    Session::builder().cache_dir(dir).threads(2).build()
}

/// Render outcomes to a canonical string: any behavioral difference
/// (cycles, stalls, outputs, code bytes, compile stats) shows up here.
fn fingerprint(outcomes: &[asip::core::EvalOutcome]) -> String {
    format!("{outcomes:#?}")
}

/// Every `.art` entry file under the cache directory.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for stage in ["parse", "optimize", "profile", "compile", "simulate"] {
        if let Ok(rd) = fs::read_dir(dir.join(stage)) {
            for e in rd.flatten() {
                if e.path().extension().is_some_and(|x| x == "art") {
                    out.push(e.path());
                }
            }
        }
    }
    out.sort();
    out
}

#[test]
fn cold_session_warm_starts_byte_identical_from_disk() {
    let dir = fresh_dir("warmstart");
    let reqs = requests();

    // Pass 1: populate the disk tier.
    let s1 = disk_session(&dir);
    let out1 = s1.eval_batch(&reqs);
    assert!(out1.iter().all(|o| o.is_ok()), "{out1:#?}");
    let cold_stats = s1.cache_stats();
    assert!(cold_stats.has_disk);
    // Every compile is a genuine miss: compile keys are unique per cell,
    // so nothing compiled can have come from a fresh directory. (Shared
    // front-half keys are deliberately not pinned to zero disk hits: with
    // two workers, one worker's write-through can land on disk inside the
    // other's probe window — a benign race that serves the correct bytes.)
    assert_eq!(cold_stats.compile.misses, 9, "{cold_stats}");
    assert!(
        cold_stats.disk.stores > 0,
        "artifacts written through to disk: {cold_stats}"
    );
    assert!(!entry_files(&dir).is_empty());
    let baseline = fingerprint(&out1);

    // A memory-only session computes the same results (tiers are
    // invisible to the measurement).
    let mem_only = Session::builder().threads(2).build();
    assert!(!mem_only.cache_stats().has_disk);
    assert_eq!(fingerprint(&mem_only.eval_batch(&reqs)), baseline);

    // Pass 2: a *cold* session (new process stand-in) pointed at the warm
    // directory. Byte-identical outcomes, zero recomputation: every stage
    // — the memoized Simulate measurement included — is served from the
    // disk tier.
    drop(s1);
    let s2 = disk_session(&dir);
    let out2 = s2.eval_batch(&reqs);
    assert_eq!(fingerprint(&out2), baseline, "disk-warm must be identical");
    let warm_stats = s2.cache_stats();
    assert_eq!(
        warm_stats.misses(),
        0,
        "nothing recomputes on a warm dir: {warm_stats}"
    );
    assert!(warm_stats.hits() > 0, "{warm_stats}");
    assert!(
        warm_stats.disk.hits > 0,
        "hits must come from the disk tier: {warm_stats}"
    );
    assert_eq!(warm_stats.disk.stale_drops, 0, "{warm_stats}");
    // Disk hits were promoted into the memory tier.
    assert!(warm_stats.mem.stores > 0, "{warm_stats}");

    let _ = fs::remove_dir_all(&dir);
}

/// One corruption scenario: mutate a warm cache directory, then prove the
/// next session silently recomputes identical results and counts the
/// stale drops.
fn corruption_case(name: &str, corrupt: impl Fn(&[PathBuf]) -> usize, expect_disk_misses: bool) {
    let dir = fresh_dir(name);
    let reqs = small_requests();
    let baseline = {
        let s = disk_session(&dir);
        fingerprint(&s.eval_batch(&reqs))
    };
    let files = entry_files(&dir);
    assert!(!files.is_empty());
    let corrupted = corrupt(&files);
    assert!(corrupted > 0, "{name}: the scenario must corrupt something");

    let s = disk_session(&dir);
    let out = s.eval_batch(&reqs);
    assert_eq!(
        fingerprint(&out),
        baseline,
        "{name}: corruption must never change results"
    );
    let stats = s.cache_stats();
    assert!(
        stats.disk.stale_drops >= corrupted as u64,
        "{name}: every corrupt entry is a counted stale drop: {stats}"
    );
    if expect_disk_misses {
        assert!(
            stats.misses() > 0,
            "{name}: dropped entries recompute: {stats}"
        );
    }

    // The recompute healed the cache: a third session is clean again.
    let s = disk_session(&dir);
    let out = s.eval_batch(&reqs);
    assert_eq!(fingerprint(&out), baseline);
    let healed = s.cache_stats();
    assert_eq!(healed.misses(), 0, "{name}: healed: {healed}");
    assert_eq!(healed.disk.stale_drops, 0, "{name}: healed: {healed}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_recompute_silently() {
    corruption_case(
        "truncate",
        |files| {
            for f in files {
                let bytes = fs::read(f).unwrap();
                fs::write(f, &bytes[..bytes.len() / 2]).unwrap();
            }
            files.len()
        },
        true,
    );
}

#[test]
fn garbage_entries_recompute_silently() {
    corruption_case(
        "garbage",
        |files| {
            for (i, f) in files.iter().enumerate() {
                // A mix of wrong-magic garbage and bit-rotted payloads
                // (intact header, failing checksum).
                let mut bytes = fs::read(f).unwrap();
                if i % 2 == 0 {
                    bytes.iter_mut().for_each(|b| *b = !*b);
                } else {
                    let n = bytes.len();
                    bytes[n - 9] ^= 0x40;
                }
                fs::write(f, &bytes).unwrap();
            }
            files.len()
        },
        true,
    );
}

#[test]
fn wrong_format_version_recomputes_silently() {
    corruption_case(
        "version",
        |files| {
            for f in files {
                // Byte 8..12 is the little-endian format version.
                let mut bytes = fs::read(f).unwrap();
                bytes[8] = bytes[8].wrapping_add(1);
                // Keep the checksum consistent so *only* the version check
                // can reject the entry.
                let n = bytes.len();
                let body = &bytes[..n - 8];
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in body {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                bytes[n - 8..].copy_from_slice(&h.to_le_bytes());
                fs::write(f, &bytes).unwrap();
            }
            files.len()
        },
        true,
    );
}

#[test]
fn key_mismatched_entries_recompute_silently() {
    corruption_case(
        "keyswap",
        |files| {
            // Swap two compile-stage entries: each file is now valid,
            // checksummed — and stored under the *other* key's name. Only
            // the key check in the header can reject it.
            let compile: Vec<&PathBuf> = files
                .iter()
                .filter(|f| f.parent().unwrap().ends_with("compile"))
                .collect();
            assert!(compile.len() >= 2, "need two compile entries to swap");
            let (a, b) = (compile[0], compile[1]);
            let tmp = a.with_extension("swap");
            fs::rename(a, &tmp).unwrap();
            fs::rename(b, a).unwrap();
            fs::rename(&tmp, b).unwrap();
            2
        },
        true,
    );
}

/// FNV-1a 64, the entry checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Entries a format-1 build left behind — the header held the full
/// rendered stage key — read as `BadVersion(1)`: each is dropped, counted
/// as a stale drop and recomputed, with byte-identical results.
#[test]
fn format_v1_entries_are_dropped_and_recomputed() {
    use asip::core::cache::entry::{decode_entry, EntryError};
    use asip::core::{ArtifactId, StageKind};
    use asip::isa::codec::Codec;
    corruption_case(
        "v1",
        |files| {
            for f in files {
                let dir = f.parent().unwrap().file_name().unwrap();
                let stage = *StageKind::ALL.iter().find(|s| dir == s.name()).unwrap();
                let bytes = fs::read(f).unwrap();
                // Format 2 header: magic (8), version (4), stage (1), key.
                let key = ArtifactId::decode_all(&bytes[13..29]).unwrap();
                let (_, payload) = decode_entry(&bytes, stage, key).unwrap();
                let rendered = format!("{stage}\u{1f}rendered inputs of {key}");
                let mut v1 = b"ASIPART\0".to_vec();
                v1.extend_from_slice(&1u32.to_le_bytes());
                v1.push(stage as u8);
                for field in [rendered.as_bytes(), &payload] {
                    v1.extend_from_slice(&(field.len() as u32).to_le_bytes());
                    v1.extend_from_slice(field);
                }
                let checksum = fnv1a64(&v1);
                v1.extend_from_slice(&checksum.to_le_bytes());
                assert_eq!(
                    decode_entry(&v1, stage, key),
                    Err(EntryError::BadVersion(1))
                );
                fs::write(f, &v1).unwrap();
            }
            files.len()
        },
        true,
    );
}
