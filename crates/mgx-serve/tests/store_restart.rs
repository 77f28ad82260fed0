//! Restart durability for the two-tier result store: populate the disk
//! tier through one store handle, drop it (simulating a daemon restart),
//! reopen over the same directory, and assert every warm fetch returns
//! the stored bytes **verbatim** with the hit attributed to the disk tier
//! — the property that makes `serve --store DIR` survive restarts without
//! re-simulating anything.

use mgx_obs::Registry;
use mgx_serve::{ResultStore, StoreConfig};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgx-store-restart-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The store's `mgx_store_{name}_total` counter as `metrics` reports it.
fn count(registry: &Registry, name: &str) -> u64 {
    registry.counter_value(&format!("mgx_store_{name}_total")).expect("registered at open")
}

/// Deterministic fake result documents keyed by digest, shaped like real
/// `result_json` envelopes (including >2^53 integers, which the store must
/// carry as opaque bytes).
fn documents(n: u64) -> BTreeMap<u64, String> {
    (0..n)
        .map(|i| {
            let digest = 0x1000 + i * 7;
            let doc = format!(
                "{{\"suite\":\"dnn-inference\",\"case\":{i},\"exec_ns_bits\":{},\"rows\":[{}]}}",
                (1u64 << 62) | (i * 0x9e37),
                i * 3
            );
            (digest, doc)
        })
        .collect()
}

#[test]
fn disk_tier_survives_restart_and_serves_bytes_verbatim() {
    let dir = scratch_dir("verbatim");
    let cfg = StoreConfig { mem_entries: 4, disk: Some(dir.clone()) };
    let docs = documents(32);

    // Session one: populate far past the memory tier's capacity, so most
    // entries exist *only* on disk, then shut down cleanly.
    {
        let store = ResultStore::open(cfg.clone(), &Registry::new()).unwrap();
        for (&digest, doc) in &docs {
            store.put(digest, doc.clone()).unwrap();
        }
        assert_eq!(store.disk_entries(), docs.len(), "every put must land on disk");
        assert!(store.mem_entries() <= 4, "memory tier stays bounded");
        store.flush().unwrap();
    } // drop = restart

    // Session two: a cold process over the same directory.
    let registry = Registry::new();
    let store = ResultStore::open(cfg, &registry).unwrap();
    assert_eq!(store.mem_entries(), 0, "restart starts with a cold memory tier");
    assert_eq!(store.disk_entries(), docs.len(), "disk tier survived the restart");

    for (&digest, doc) in &docs {
        let got = store.get(digest).unwrap_or_else(|| panic!("digest {digest:#x} lost"));
        // `put` appends the completeness `\n`; everything before it must be
        // the original bytes, untouched.
        assert_eq!(&*got, format!("{doc}\n"), "stored bytes must come back verbatim");
    }

    // Attribution: every warm fetch was a hit *loaded from the disk tier*.
    let hits = count(&registry, "hits");
    let disk_loads = count(&registry, "disk_loads");
    assert_eq!(hits, docs.len() as u64, "all fetches hit");
    assert_eq!(count(&registry, "misses"), 0, "nothing was lost");
    assert_eq!(disk_loads, docs.len() as u64, "every hit came off disk");
    assert_eq!(count(&registry, "insertions"), 0, "no re-simulation, no re-insertions");

    // A re-fetch of a just-promoted entry is served from memory: hits grow,
    // disk loads do not.
    let last = *docs.keys().last().unwrap();
    assert!(store.get(last).is_some());
    assert_eq!(count(&registry, "hits"), hits + 1);
    assert_eq!(count(&registry, "disk_loads"), disk_loads, "memory hit must not touch disk");

    let _ = fs::remove_dir_all(dir);
}

#[test]
fn unknown_digests_after_restart_are_clean_misses() {
    let dir = scratch_dir("miss");
    let cfg = StoreConfig { mem_entries: 4, disk: Some(dir.clone()) };
    {
        let store = ResultStore::open(cfg.clone(), &Registry::new()).unwrap();
        store.put(1, "{\"ok\":true}".into()).unwrap();
    }
    let registry = Registry::new();
    let store = ResultStore::open(cfg, &registry).unwrap();
    assert!(store.get(2).is_none());
    let counts = ["hits", "misses", "disk_loads"].map(|name| count(&registry, name));
    assert_eq!(counts, [0, 1, 0]);
    let _ = fs::remove_dir_all(dir);
}
