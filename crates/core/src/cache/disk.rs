//! Tier 1: the persistent on-disk [`CacheStore`].
//!
//! # On-disk layout
//!
//! ```text
//! <cache_dir>/
//!   parse/      <key>.art        one file per entry, named by the
//!   optimize/   …                32-hex-digit stage key
//!   profile/    …
//!   compile/    …
//!   simulate/   …
//! ```
//!
//! Each `.art` file is a versioned, self-describing container (the
//! [`entry`](super::entry) module): magic, format version, stage kind, the
//! stage key, the payload's [`ArtifactId`], the payload, and a trailing
//! checksum. A load re-verifies the header and checksum, so a renamed or
//! truncated file, garbage bytes or a stale format version can never
//! surface a wrong artifact — each is deleted, counted in
//! [`TierStats::stale_drops`], and silently recomputed.
//!
//! # Eviction: age + size
//!
//! The store tracks total entry bytes; when they exceed the configured
//! budget, the oldest files (by modification time) are deleted until the
//! total fits. Loads re-touch their file's mtime, so "oldest" approximates
//! least-recently-*used*, not just least-recently-written. Opening a store
//! additionally purges entries older than [`DiskTierConfig::max_age_secs`],
//! when set.
//!
//! # Failure model
//!
//! Every filesystem error degrades to a cache miss or a skipped write —
//! never an evaluation error. Writes go to a temporary file first and
//! `rename` into place, so concurrent sessions (or processes) sharing one
//! directory only ever observe complete entries.

use super::entry::{decode_entry, encode_entry};
use super::{ArtifactId, CacheStore, DiskTierConfig, StageKind, TierStats};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

/// Observability mirrors of the retention counters (the authoritative
/// values stay in [`TierStats`]; these feed the metrics exposition).
static OBS_EVICTIONS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.evictions");
static OBS_STALE_DROPS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.stale_drops");
static OBS_TMP_RECLAIMED: asip_obs::Counter = asip_obs::Counter::new("cache.disk.tmp_reclaimed");

/// The persistent disk tier. See the [module docs](self).
pub struct DiskStore {
    config: DiskTierConfig,
    inner: Mutex<DiskInner>,
    hits: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
    stale_drops: AtomicU64,
    evictions: AtomicU64,
    tmp_reclaimed: AtomicU64,
}

struct DiskInner {
    /// Approximate total bytes of entry files (ground truth is re-scanned
    /// before any eviction pass).
    resident_bytes: u64,
}

/// Process-wide sequence for unique temporary file names. Tmp names embed
/// the pid, which distinguishes *processes* sharing a cache directory; this
/// counter distinguishes *stores* (and threads) within one process — a
/// per-instance sequence would let two `DiskStore`s opened on the same
/// directory both write `.tmp-<pid>-1` and race each other into a torn
/// entry.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Open (or create) the store at `config.dir`.
    ///
    /// Scans existing entries to seed the size accounting, purges entries
    /// older than `config.max_age_secs` (when set), and evicts
    /// oldest-first down to `config.byte_budget`. All I/O failures leave
    /// an inert store that misses on every load.
    pub fn open(config: DiskTierConfig) -> DiskStore {
        for stage in StageKind::ALL {
            let _ = fs::create_dir_all(config.dir.join(stage.name()));
        }
        let store = DiskStore {
            config,
            inner: Mutex::new(DiskInner { resident_bytes: 0 }),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_reclaimed: AtomicU64::new(0),
        };
        store.open_sweep();
        store
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The entry file for (stage, key).
    fn path_for(&self, stage: StageKind, key: ArtifactId) -> PathBuf {
        self.config
            .dir
            .join(stage.name())
            .join(format!("{key}.art"))
    }

    /// Every entry file with its byte size and modification time.
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        for stage in StageKind::ALL {
            let Ok(dir) = fs::read_dir(self.config.dir.join(stage.name())) else {
                continue;
            };
            for e in dir.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "art") {
                    continue;
                }
                let Ok(meta) = e.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out
    }

    /// Age purge + size eviction at open time, plus reclamation of
    /// temporary files leaked by a crashed writer. Live writers hold a
    /// `.tmp-*` file only for the instant between write and rename, so
    /// anything older than a minute is an orphan; racing a genuinely live
    /// one at worst skips that write (the documented failure model).
    fn open_sweep(&self) {
        if let Ok(rd) = fs::read_dir(&self.config.dir) {
            let cutoff = SystemTime::now()
                .checked_sub(Duration::from_secs(60))
                .unwrap_or(SystemTime::UNIX_EPOCH);
            for e in rd.flatten() {
                let name = e.file_name();
                let is_tmp = name.to_string_lossy().starts_with(".tmp-");
                let is_old = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .map(|t| t < cutoff)
                    .unwrap_or(true);
                if is_tmp && is_old && fs::remove_file(e.path()).is_ok() {
                    self.tmp_reclaimed.fetch_add(1, Ordering::Relaxed);
                    OBS_TMP_RECLAIMED.add(1);
                }
            }
        }
        let mut files = self.scan();
        if let Some(max_age) = self.config.max_age_secs {
            let cutoff = SystemTime::now()
                .checked_sub(Duration::from_secs(max_age))
                .unwrap_or(SystemTime::UNIX_EPOCH);
            files.retain(|(path, _, mtime)| {
                if *mtime < cutoff {
                    if fs::remove_file(path).is_ok() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        OBS_EVICTIONS.add(1);
                    }
                    false
                } else {
                    true
                }
            });
        }
        let total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        self.inner.lock().unwrap().resident_bytes = total;
        if total > self.config.byte_budget {
            self.evict_oldest(files);
        }
    }

    /// Delete oldest-first until the total fits the budget.
    fn evict_oldest(&self, mut files: Vec<(PathBuf, u64, SystemTime)>) {
        files.sort_by_key(|(_, _, mtime)| *mtime);
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        let mut evicted = 0u64;
        for (path, len, _) in files {
            if total <= self.config.byte_budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
            }
        }
        self.inner.lock().unwrap().resident_bytes = total;
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            OBS_EVICTIONS.add(evicted);
        }
    }

    /// Remove a rejected entry file, accounting for its bytes.
    fn drop_stale(&self, path: &Path, len: u64) {
        let _ = fs::remove_file(path);
        let mut inner = self.inner.lock().unwrap();
        inner.resident_bytes = inner.resident_bytes.saturating_sub(len);
        drop(inner);
        self.stale_drops.fetch_add(1, Ordering::Relaxed);
        OBS_STALE_DROPS.add(1);
    }
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.config.dir)
            .field("budget", &self.config.byte_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheStore for DiskStore {
    fn label(&self) -> &'static str {
        "disk"
    }

    fn load(&self, stage: StageKind, key: ArtifactId) -> Option<(ArtifactId, Vec<u8>)> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let path = self.path_for(stage, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None, // not found or unreadable: plain miss
        };
        match decode_entry(&bytes, stage, key) {
            Ok(hit) => {
                // Re-touch so age eviction approximates LRU. Best-effort.
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            Err(_) => {
                // Truncated, corrupt, stale format, or a file moved under
                // another key's name: drop it and recompute.
                self.drop_stale(&path, bytes.len() as u64);
                None
            }
        }
    }

    fn store(&self, stage: StageKind, key: ArtifactId, id: ArtifactId, payload: &[u8]) {
        let entry = encode_entry(stage, key, id, payload);
        if entry.len() as u64 > self.config.byte_budget {
            // An entry that can never fit is not persisted at all.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            OBS_EVICTIONS.add(1);
            return;
        }
        let path = self.path_for(stage, key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .config
            .dir
            .join(format!(".tmp-{}-{}", std::process::id(), seq));
        if fs::write(&tmp, &entry).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let replaced = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        let over = {
            let mut inner = self.inner.lock().unwrap();
            inner.resident_bytes = inner
                .resident_bytes
                .saturating_sub(replaced)
                .saturating_add(entry.len() as u64);
            inner.resident_bytes > self.config.byte_budget
        };
        if over {
            // Re-scan for ground truth (other processes may share the
            // directory), then delete oldest-first.
            self.evict_oldest(self.scan());
        }
    }

    fn invalidate(&self, stage: StageKind, key: ArtifactId) {
        let path = self.path_for(stage, key);
        let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        self.drop_stale(&path, len);
    }

    fn clear(&self) {
        for (path, _, _) in self.scan() {
            let _ = fs::remove_file(path);
        }
        self.inner.lock().unwrap().resident_bytes = 0;
        for c in [
            &self.hits,
            &self.loads,
            &self.stores,
            &self.stale_drops,
            &self.evictions,
            &self.tmp_reclaimed,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            tmp_reclaimed: self.tmp_reclaimed.load(Ordering::Relaxed),
            resident_bytes: self.inner.lock().unwrap().resident_bytes,
            entries: self.stage_entries().iter().sum(),
        }
    }

    fn stage_entries(&self) -> [u64; 5] {
        StageKind::ALL.map(|stage| {
            let Ok(dir) = fs::read_dir(self.config.dir.join(stage.name())) else {
                return 0;
            };
            let art = |e: &fs::DirEntry| e.path().extension().is_some_and(|x| x == "art");
            dir.flatten().filter(art).count() as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str) -> ArtifactId {
        ArtifactId::of_bytes(name.as_bytes())
    }

    /// Store `payload` under key `name`, with its real payload ID.
    fn put(s: &DiskStore, stage: StageKind, name: &str, payload: &[u8]) {
        s.store(stage, k(name), ArtifactId::of_bytes(payload), payload);
    }

    fn get(s: &DiskStore, stage: StageKind, name: &str) -> Option<Vec<u8>> {
        s.load(stage, k(name)).map(|(_, payload)| payload)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asip-diskstore-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persists_across_store_instances() {
        let dir = tmp_dir("persist");
        let a = DiskStore::open(DiskTierConfig::new(&dir));
        put(&a, StageKind::Parse, "key-1", b"payload-1");
        assert_eq!(
            get(&a, StageKind::Parse, "key-1").as_deref(),
            Some(&b"payload-1"[..])
        );
        drop(a);
        let b = DiskStore::open(DiskTierConfig::new(&dir));
        assert_eq!(
            get(&b, StageKind::Parse, "key-1").as_deref(),
            Some(&b"payload-1"[..])
        );
        assert_eq!(get(&b, StageKind::Compile, "key-1"), None, "per-stage");
        assert_eq!(b.stats().hits, 1);
        assert!(b.stats().resident_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_file_fails_key_check_and_is_dropped() {
        let dir = tmp_dir("rename");
        let s = DiskStore::open(DiskTierConfig::new(&dir));
        put(&s, StageKind::Compile, "key-a", b"artifact-a");
        // Masquerade key-a's entry as key-b's.
        let a = s.path_for(StageKind::Compile, k("key-a"));
        let b = s.path_for(StageKind::Compile, k("key-b"));
        fs::rename(&a, &b).unwrap();
        assert_eq!(
            super::super::entry::decode_entry(
                &fs::read(&b).unwrap(),
                StageKind::Compile,
                k("key-b")
            ),
            Err(super::super::entry::EntryError::KeyMismatch)
        );
        assert_eq!(get(&s, StageKind::Compile, "key-b"), None);
        assert_eq!(s.stats().stale_drops, 1);
        assert!(!b.exists(), "the masquerading file is deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_eviction_drops_oldest_first() {
        let dir = tmp_dir("evict");
        let probe = encode_entry(StageKind::Parse, k("k00"), k("id"), b"xxxxxxxx");
        let unit = probe.len() as u64;
        let s = DiskStore::open(DiskTierConfig {
            dir: dir.clone(),
            byte_budget: 3 * unit + unit / 2,
            max_age_secs: None,
        });
        for i in 0..6 {
            put(&s, StageKind::Parse, &format!("k{i:02}"), b"xxxxxxxx");
            // mtime granularity: space the writes out.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let t = s.stats();
        assert!(t.evictions >= 2, "{t}");
        assert!(t.resident_bytes <= 3 * unit + unit / 2, "{t}");
        // The newest entry survived; the oldest did not.
        assert!(get(&s, StageKind::Parse, "k05").is_some());
        assert!(get(&s, StageKind::Parse, "k00").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_age_purges_at_open() {
        let dir = tmp_dir("age");
        let s = DiskStore::open(DiskTierConfig::new(&dir));
        put(&s, StageKind::Parse, "old", b"payload");
        // Backdate the entry far beyond any cutoff.
        let path = s.path_for(StageKind::Parse, k("old"));
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1))
            .unwrap();
        drop(f);
        drop(s);
        let s = DiskStore::open(DiskTierConfig {
            dir: dir.clone(),
            byte_budget: DiskTierConfig::new(&dir).byte_budget,
            max_age_secs: Some(3600),
        });
        assert_eq!(get(&s, StageKind::Parse, "old"), None);
        assert_eq!(s.stats().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_reclaimed_at_open() {
        let dir = tmp_dir("tmpreclaim");
        fs::create_dir_all(&dir).unwrap();
        // A crashed writer's leftover, backdated past the liveness window.
        let orphan = dir.join(".tmp-999-7");
        fs::write(&orphan, b"half-written entry").unwrap();
        let f = fs::File::options().write(true).open(&orphan).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1))
            .unwrap();
        drop(f);
        let s = DiskStore::open(DiskTierConfig::new(&dir));
        assert!(!orphan.exists(), "open must reclaim orphaned tmp files");
        assert_eq!(
            s.stats().tmp_reclaimed,
            1,
            "the reclaimed orphan is counted in TierStats"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_never_tear_an_entry() {
        // Two independently opened stores on one directory (the shard
        // executor's sharing pattern) hammer the same key from several
        // threads each. Every interleaved load must return one of the
        // *complete* payloads — a torn entry would fail verification and
        // count a stale drop.
        let dir = tmp_dir("hammer");
        let a = DiskStore::open(DiskTierConfig::new(&dir));
        let b = DiskStore::open(DiskTierConfig::new(&dir));
        let payload_for = |i: u64| vec![(i & 0xff) as u8; 4096 + (i % 7) as usize];
        std::thread::scope(|scope| {
            for (store, salt) in [(&a, 0u64), (&b, 1000u64)] {
                for t in 0..2u64 {
                    scope.spawn(move || {
                        for i in 0..50 {
                            let v = salt + t * 100 + i;
                            put(store, StageKind::Simulate, "hot-key", &payload_for(v));
                            if let Some(got) = get(store, StageKind::Simulate, "hot-key") {
                                assert!(
                                    got.len() >= 4096 && got.len() < 4103,
                                    "unexpected payload shape: {} bytes",
                                    got.len()
                                );
                                assert!(got.iter().all(|&x| x == got[0]), "torn payload");
                            }
                        }
                    });
                }
            }
        });
        for s in [&a, &b] {
            let t = s.stats();
            assert_eq!(t.stale_drops, 0, "no load may ever see a torn entry: {t}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_is_an_inert_tier() {
        // A path that cannot be created (parent is a file).
        let file = std::env::temp_dir().join(format!("asip-notdir-{}", std::process::id()));
        fs::write(&file, b"x").unwrap();
        let s = DiskStore::open(DiskTierConfig::new(file.join("sub")));
        put(&s, StageKind::Parse, "k", b"payload");
        assert_eq!(get(&s, StageKind::Parse, "k"), None);
        let _ = fs::remove_file(&file);
    }
}
