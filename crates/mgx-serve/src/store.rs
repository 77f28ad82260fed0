//! Content-addressed result store: an in-memory LRU tier over an optional
//! on-disk tier.
//!
//! Keys are [`mgx_sim::job::JobSpec::digest`]s — 64-bit content addresses
//! of the *canonicalized* job spec, salted with the crate version — and
//! values are the canonical result documents ([`JobSpec::result_json`]),
//! stored verbatim. Because the key covers everything that determines
//! result bits and the value is the exact response byte string, a store
//! hit is indistinguishable from a fresh simulation.
//!
//! The disk tier is crash-safe by construction: a value is written to a
//! uniquely named temporary file in the same directory and atomically
//! `rename`d into place, so a reader either sees the complete document or
//! nothing. Two independent defenses keep a torn write from ever being
//! served: stale `*.tmp-*` files are swept on [`ResultStore::open`], and
//! every document must end with the `\n` terminator written last — a file
//! missing it (e.g. `rename` raced a power cut on a filesystem that
//! reorders data and metadata) is discarded on read.
//!
//! [`JobSpec::result_json`]: mgx_sim::job::JobSpec::result_json

use mgx_obs::{Counter, Registry};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Store sizing and placement.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum resident entries in the memory tier (LRU evicted beyond).
    pub mem_entries: usize,
    /// Optional directory for the persistent tier (`--store DIR`).
    pub disk: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { mem_entries: 256, disk: None }
    }
}

/// The store's counters are shared [`mgx_obs`] handles registered under
/// `mgx_store_*`: the `metrics` op and any report writer holding the same
/// [`Registry`] read the very atomics the store updates.
struct Counters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    disk_loads: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("mgx_store_hits_total", "lookups answered from memory or disk"),
            misses: registry.counter("mgx_store_misses_total", "lookups that found nothing"),
            disk_loads: registry
                .counter("mgx_store_disk_loads_total", "hits promoted from the disk tier"),
            insertions: registry.counter("mgx_store_insertions_total", "documents inserted"),
            evictions: registry
                .counter("mgx_store_evictions_total", "memory-tier entries evicted by LRU"),
        }
    }
}

struct MemTier {
    map: HashMap<u64, (Arc<str>, u64)>,
    clock: u64,
    capacity: usize,
}

impl MemTier {
    /// Returns the value and refreshes its recency stamp.
    fn get(&mut self, digest: u64) -> Option<Arc<str>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&digest).map(|(v, stamp)| {
            *stamp = clock;
            v.clone()
        })
    }

    /// Inserts, evicting the least-recently-used entry beyond capacity.
    fn put(&mut self, digest: u64, value: Arc<str>) -> u64 {
        self.clock += 1;
        self.map.insert(digest, (value, self.clock));
        let mut evicted = 0;
        while self.map.len() > self.capacity.max(1) {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k)
                .expect("over-capacity map is non-empty");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// How old a `*.tmp-*` file must be before [`ResultStore::open`] treats
/// it as an interrupted-write leftover rather than a concurrent writer's
/// in-flight file. In-flight writes live for milliseconds; a minute is
/// conservative in both directions.
const TMP_SWEEP_AGE: std::time::Duration = std::time::Duration::from_secs(60);

/// The two-tier content-addressed store. All methods take `&self`; the
/// store is shared freely across scheduler workers and connection threads.
pub struct ResultStore {
    mem: Mutex<MemTier>,
    disk: Option<PathBuf>,
    counters: Counters,
    tmp_seq: AtomicU64,
}

impl ResultStore {
    /// Opens the store, creating the disk directory if needed and sweeping
    /// `*.tmp-*` leftovers from interrupted writes.
    ///
    /// Only *stale* temp files are removed (older than
    /// `TMP_SWEEP_AGE`): several processes may share one store
    /// directory (a `serve` daemon plus `figures --store`, as the docs
    /// endorse), and a fresh temp file may be another process's write in
    /// flight between `create` and `rename`. A genuinely orphaned temp
    /// file from a crash only has to wait one more open to age out.
    ///
    /// The counters register in `registry` (`mgx_store_*` families), so
    /// every surface that renders it reads the same atomics.
    pub fn open(cfg: StoreConfig, registry: &Registry) -> io::Result<Self> {
        if let Some(dir) = &cfg.disk {
            fs::create_dir_all(dir)?;
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                if !entry.file_name().to_string_lossy().contains(".tmp-") {
                    continue;
                }
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= TMP_SWEEP_AGE);
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(Self {
            mem: Mutex::new(MemTier {
                map: HashMap::new(),
                clock: 0,
                capacity: cfg.mem_entries.max(1),
            }),
            disk: cfg.disk,
            counters: Counters::register(registry),
            tmp_seq: AtomicU64::new(0),
        })
    }

    fn path_of(&self, digest: u64) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("{digest:016x}.json")))
    }

    /// Looks a digest up: memory first, then disk (promoting on hit).
    pub fn get(&self, digest: u64) -> Option<Arc<str>> {
        if let Some(v) = self.mem.lock().unwrap().get(digest) {
            self.counters.hits.inc();
            return Some(v);
        }
        if let Some(path) = self.path_of(digest) {
            if let Some(doc) = read_complete(&path) {
                let value: Arc<str> = Arc::from(doc);
                let evicted = self.mem.lock().unwrap().put(digest, value.clone());
                self.counters.evictions.add(evicted);
                self.counters.hits.inc();
                self.counters.disk_loads.inc();
                return Some(value);
            }
        }
        self.counters.misses.inc();
        None
    }

    /// Inserts a result document under its digest, writing the disk tier
    /// first (atomic write-rename) so a crash after `put` returns can
    /// never lose an acknowledged result. The stored value always ends
    /// with exactly one `\n` — the completeness marker `get` checks.
    pub fn put(&self, digest: u64, document: String) -> io::Result<Arc<str>> {
        let mut doc = document;
        while doc.ends_with('\n') {
            doc.pop();
        }
        doc.push('\n');
        let value: Arc<str> = Arc::from(doc);
        if let Some(path) = self.path_of(digest) {
            let dir = path.parent().expect("store files live in the store dir");
            let tmp = dir.join(format!(
                "{digest:016x}.json.tmp-{}-{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            let mut f = fs::File::create(&tmp)?;
            f.write_all(value.as_bytes())?;
            f.sync_all()?;
            drop(f);
            if let Err(e) = fs::rename(&tmp, &path) {
                // Content-addressed keys make concurrent writers of the
                // same digest interchangeable: if the destination already
                // holds a complete document (another process won the
                // race, possibly after sweeping our tmp), the store state
                // is exactly what this put wanted.
                if read_complete(&path).is_none() {
                    return Err(e);
                }
                let _ = fs::remove_file(&tmp);
            }
        }
        let evicted = self.mem.lock().unwrap().put(digest, value.clone());
        self.counters.evictions.add(evicted);
        self.counters.insertions.inc();
        Ok(value)
    }

    /// Number of entries resident in the memory tier.
    pub fn mem_entries(&self) -> usize {
        self.mem.lock().unwrap().map.len()
    }

    /// Number of complete documents in the disk tier (0 without one).
    pub fn disk_entries(&self) -> usize {
        let Some(dir) = &self.disk else { return 0 };
        fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Durability barrier for shutdown: every `put` already wrote and
    /// fsynced its file before returning, so this only needs to sync the
    /// directory entry metadata (best effort — not all platforms allow
    /// opening a directory for sync).
    pub fn flush(&self) -> io::Result<()> {
        if let Some(dir) = &self.disk {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// Reads a stored document, returning `None` (and unlinking the file) if
/// it is torn — missing the trailing `\n` that `put` writes last.
fn read_complete(path: &Path) -> Option<String> {
    let doc = fs::read_to_string(path).ok()?;
    if doc.ends_with('\n') {
        Some(doc)
    } else {
        let _ = fs::remove_file(path);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mgx-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn memory_only(mem_entries: usize, registry: &Registry) -> ResultStore {
        ResultStore::open(StoreConfig { mem_entries, disk: None }, registry).unwrap()
    }

    /// The store's `mgx_store_{name}_total` counter as `metrics` reports it.
    fn count(registry: &Registry, name: &str) -> u64 {
        registry.counter_value(&format!("mgx_store_{name}_total")).expect("registered at open")
    }

    #[test]
    fn memory_tier_round_trips_and_counts() {
        let registry = Registry::new();
        let s = memory_only(8, &registry);
        assert!(s.get(1).is_none());
        s.put(1, "{\"a\":1}".into()).unwrap();
        assert_eq!(&*s.get(1).unwrap(), "{\"a\":1}\n");
        let counts = ["hits", "misses", "insertions"].map(|name| count(&registry, name));
        assert_eq!(counts, [1, 1, 1]);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let registry = Registry::new();
        let s = memory_only(2, &registry);
        s.put(1, "one".into()).unwrap();
        s.put(2, "two".into()).unwrap();
        s.get(1); // 2 becomes LRU
        s.put(3, "three".into()).unwrap();
        assert!(s.get(2).is_none(), "LRU victim must be 2");
        assert!(s.get(1).is_some());
        assert!(s.get(3).is_some());
        assert_eq!(count(&registry, "evictions"), 1);
    }

    #[test]
    fn disk_tier_survives_reopen_and_promotes() {
        let dir = tmp_dir("reopen");
        let cfg = StoreConfig { mem_entries: 8, disk: Some(dir.clone()) };
        {
            let s = ResultStore::open(cfg.clone(), &Registry::new()).unwrap();
            s.put(42, "{\"x\":true}".into()).unwrap();
            s.flush().unwrap();
        }
        let registry = Registry::new();
        let s = ResultStore::open(cfg, &registry).unwrap();
        assert_eq!(s.mem_entries(), 0, "fresh memory tier");
        assert_eq!(&*s.get(42).unwrap(), "{\"x\":true}\n");
        assert_eq!(count(&registry, "disk_loads"), 1);
        assert_eq!(s.mem_entries(), 1, "disk hit promoted to memory");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open_but_fresh_ones_survive() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("00000000000000aa.json.tmp-99999-7");
        fs::write(&stale, "partial garbage").unwrap();
        // Backdate past the sweep horizon (a crash leftover).
        let old = std::time::SystemTime::now() - 2 * TMP_SWEEP_AGE;
        fs::File::options().write(true).open(&stale).unwrap().set_modified(old).unwrap();
        // A *fresh* tmp file could be another process's in-flight put
        // (shared store directory): open must leave it alone.
        let fresh = dir.join("00000000000000ab.json.tmp-99998-1");
        fs::write(&fresh, "someone else's in-flight write").unwrap();
        let s = ResultStore::open(
            StoreConfig { mem_entries: 4, disk: Some(dir.clone()) },
            &Registry::new(),
        )
        .unwrap();
        assert!(!stale.exists(), "interrupted-write leftovers must not survive open");
        assert!(fresh.exists(), "a concurrent writer's live tmp file must not be swept");
        assert!(s.get(0xaa).is_none(), "a tmp file is never a visible entry");
        assert!(s.get(0xab).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn same_digest_puts_from_two_stores_converge() {
        // Two store handles over one directory (daemon + figures --store):
        // both put the same digest; content addressing makes the writers
        // interchangeable, so both must succeed and exactly one complete
        // document must remain.
        let dir = tmp_dir("race");
        let s1 = ResultStore::open(
            StoreConfig { mem_entries: 4, disk: Some(dir.clone()) },
            &Registry::new(),
        )
        .unwrap();
        let s2 = ResultStore::open(
            StoreConfig { mem_entries: 4, disk: Some(dir.clone()) },
            &Registry::new(),
        )
        .unwrap();
        s1.put(0xcc, "{\"winner\":true}".into()).unwrap();
        s2.put(0xcc, "{\"winner\":true}".into()).unwrap();
        assert_eq!(&*s2.get(0xcc).unwrap(), "{\"winner\":true}\n");
        assert_eq!(s2.disk_entries(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_documents_are_discarded_not_served() {
        let dir = tmp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        // A document missing the trailing newline terminator is, by the
        // write protocol, incomplete.
        let torn = dir.join(format!("{:016x}.json", 0xbbu64));
        fs::write(&torn, "{\"truncat").unwrap();
        let s = ResultStore::open(
            StoreConfig { mem_entries: 4, disk: Some(dir.clone()) },
            &Registry::new(),
        )
        .unwrap();
        assert!(s.get(0xbb).is_none());
        assert!(!torn.exists(), "torn document is unlinked on detection");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_puts_leave_only_complete_documents() {
        let dir = tmp_dir("concurrent");
        let s = std::sync::Arc::new(
            ResultStore::open(
                StoreConfig { mem_entries: 64, disk: Some(dir.clone()) },
                &Registry::new(),
            )
            .unwrap(),
        );
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let d = t * 1000 + i;
                        s.put(d, format!("{{\"payload\":{d}}}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.disk_entries(), 128);
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(name.ends_with(".json"), "no partial files may survive: {name}");
            let body = fs::read_to_string(entry.unwrap().path()).unwrap();
            assert!(body.ends_with('\n'), "every visible document is complete");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn put_normalizes_the_newline_terminator() {
        let s = memory_only(4, &Registry::new());
        s.put(7, "doc\n\n".into()).unwrap();
        assert_eq!(&*s.get(7).unwrap(), "doc\n");
    }
}
