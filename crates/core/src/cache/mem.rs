//! Tier 0: the in-process, LRU byte-budgeted [`CacheStore`].
//!
//! Payload bytes (with their [`ArtifactId`]) in one map per stage, keyed
//! by the 128-bit stage key, and one global least-recently-used queue
//! across all stages enforcing the byte budget. An entry larger than the
//! whole budget is never admitted — flushing every resident entry for an
//! artifact that cannot stay would be pure churn — but still counts as an
//! eviction so the non-retention shows up in [`TierStats`].

use super::{ArtifactId, CacheStore, StageKind, TierStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fixed per-entry bookkeeping added to every size estimate: the key and
/// payload IDs, the map and queue slots.
pub(crate) const ENTRY_OVERHEAD: u64 = 96;

/// Observability mirrors of the retention counters (the authoritative
/// values stay in [`TierStats`]; these feed the metrics exposition).
static OBS_EVICTIONS: asip_obs::Counter = asip_obs::Counter::new("cache.mem.evictions");
static OBS_STALE_DROPS: asip_obs::Counter = asip_obs::Counter::new("cache.mem.stale_drops");

struct Entry {
    id: ArtifactId,
    payload: Box<[u8]>,
    /// This entry's current slot in [`Inner::lru`].
    tick: u64,
}

fn entry_bytes(payload_len: usize) -> u64 {
    payload_len as u64 + ENTRY_OVERHEAD
}

#[derive(Default)]
struct Inner {
    maps: [HashMap<ArtifactId, Entry>; 5],
    /// Recency queue: tick → (stage, key); the first entry is coldest.
    lru: BTreeMap<u64, (usize, ArtifactId)>,
    next_tick: u64,
    resident_bytes: u64,
}

impl Inner {
    fn remove(&mut self, stage: usize, key: ArtifactId) -> bool {
        let Some(e) = self.maps[stage].remove(&key) else {
            return false;
        };
        self.lru.remove(&e.tick);
        self.resident_bytes -= entry_bytes(e.payload.len());
        true
    }

    /// Evict the coldest entry; returns false when the cache is empty.
    fn evict_one(&mut self) -> bool {
        let Some((_, (stage, key))) = self.lru.pop_first() else {
            return false;
        };
        let removed = self.remove(stage, key);
        debug_assert!(removed, "LRU queue and stage maps must stay in sync");
        true
    }
}

/// The in-process memory tier. See the [module docs](self).
pub struct MemoryStore {
    byte_budget: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
    stale_drops: AtomicU64,
    evictions: AtomicU64,
}

impl MemoryStore {
    /// An empty store bounded to `byte_budget` resident bytes.
    pub fn new(byte_budget: u64) -> MemoryStore {
        MemoryStore {
            byte_budget,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for MemoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryStore")
            .field("budget", &self.byte_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheStore for MemoryStore {
    fn label(&self) -> &'static str {
        "mem"
    }

    fn load(&self, stage: StageKind, key: ArtifactId) -> Option<(ArtifactId, Vec<u8>)> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let e = inner.maps[stage as usize].get_mut(&key)?;
        // Touch: move the entry to the hot end of the queue.
        inner.lru.remove(&e.tick);
        e.tick = inner.next_tick;
        inner.next_tick += 1;
        inner.lru.insert(e.tick, (stage as usize, key));
        let hit = (e.id, e.payload.to_vec());
        drop(guard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    fn store(&self, stage: StageKind, key: ArtifactId, id: ArtifactId, payload: &[u8]) {
        let bytes = entry_bytes(payload.len());
        let mut inner = self.inner.lock().unwrap();
        // First insert wins: a racing worker (or a promotion racing a
        // write-through) may have stored this key already; the payloads
        // are identical deterministic encodings, so keep the resident one.
        if inner.maps[stage as usize].contains_key(&key) {
            return;
        }
        if bytes > self.byte_budget {
            // Never admitted: would flush every other resident entry for
            // nothing. Counted as an eviction so the non-retention shows
            // up in the stats.
            drop(inner);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            OBS_EVICTIONS.add(1);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let entry = Entry {
            id,
            payload: payload.into(),
            tick,
        };
        inner.maps[stage as usize].insert(key, entry);
        inner.lru.insert(tick, (stage as usize, key));
        inner.resident_bytes += bytes;
        let mut evicted = 0u64;
        while inner.resident_bytes > self.byte_budget && inner.evict_one() {
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            OBS_EVICTIONS.add(evicted);
        }
    }

    fn invalidate(&self, stage: StageKind, key: ArtifactId) {
        if self.inner.lock().unwrap().remove(stage as usize, key) {
            self.stale_drops.fetch_add(1, Ordering::Relaxed);
            OBS_STALE_DROPS.add(1);
        }
    }

    fn clear(&self) {
        *self.inner.lock().unwrap() = Inner::default();
        for c in [
            &self.hits,
            &self.loads,
            &self.stores,
            &self.stale_drops,
            &self.evictions,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> TierStats {
        let inner = self.inner.lock().unwrap();
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            tmp_reclaimed: 0, // no staging area in memory
            resident_bytes: inner.resident_bytes,
            entries: inner.maps.iter().map(|m| m.len() as u64).sum(),
        }
    }

    fn stage_entries(&self) -> [u64; 5] {
        let inner = self.inner.lock().unwrap();
        inner.maps.each_ref().map(|m| m.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_and_invalidate() {
        let s = MemoryStore::new(u64::MAX);
        let k = ArtifactId::of_bytes(b"k");
        let id = ArtifactId::of_bytes(b"payload");
        assert_eq!(s.load(StageKind::Parse, k), None);
        s.store(StageKind::Parse, k, id, b"payload");
        assert_eq!(s.load(StageKind::Parse, k), Some((id, b"payload".to_vec())));
        // Same key, different stage: distinct entries.
        assert_eq!(s.load(StageKind::Compile, k), None);
        s.invalidate(StageKind::Parse, k);
        assert_eq!(s.load(StageKind::Parse, k), None);
        let t = s.stats();
        assert_eq!(t.stale_drops, 1);
        assert_eq!(t.entries, 0);
        assert_eq!(t.resident_bytes, 0);
    }

    #[test]
    fn first_insert_wins_on_duplicate_store() {
        let s = MemoryStore::new(u64::MAX);
        let (k, id) = (ArtifactId::of_bytes(b"k"), ArtifactId::of_bytes(b"one"));
        s.store(StageKind::Parse, k, id, b"one");
        s.store(StageKind::Parse, k, id, b"one");
        let t = s.stats();
        assert_eq!(t.stores, 1);
        assert_eq!(t.entries, 1);
    }
}
