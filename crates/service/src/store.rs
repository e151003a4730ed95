//! The persistent, versioned, size-bounded cache of derivations.
//!
//! On disk a store is a directory with two files, both written atomically (tmp file +
//! rename) so a crashed writer can never leave a half-written store:
//!
//! * `store.jsonl` — one compact JSON line per entry (see [`crate::wire`]), sorted by entry
//!   id, so the file is deterministic for a given set of entries and diffs are per-entry;
//! * `index.json` — the schema tag, the rule-set and cost-model versions the entries were
//!   recorded under, and the LRU order (least recently used first).
//!
//! Opening a store whose recorded versions differ from the requested ones drops every
//! entry ([`lift_telemetry::Event::CacheInvalidate`]): derivation chains recorded against
//! another rule set may not replay, and scores from another cost model are not comparable.
//! Individual lines that fail to decode or parse (corruption, a renamed rule) are likewise
//! dropped, never served. Inserting beyond `capacity` evicts the least recently used entry
//! ([`lift_telemetry::Event::CacheEvict`], reason `lru`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lift_rewrite::RuleOptions;
use lift_telemetry::json::{parse, Json};
use lift_telemetry::{Collector, Event};
use lift_vgpu::LaunchConfig;

use crate::key::CacheKey;
use crate::wire::{entry_from_json, entry_to_json, CachedDerivation, StoredEntry};
use crate::ServiceError;

/// The `index.json` schema tag; bump on incompatible layout changes.
pub const STORE_SCHEMA: &str = "lift-cache/v1";

/// An in-memory or directory-backed LRU cache of [`StoredEntry`]s.
#[derive(Debug)]
pub struct CacheStore {
    root: Option<PathBuf>,
    capacity: usize,
    rule_set_version: u32,
    cost_model_version: u32,
    entries: HashMap<String, StoredEntry>,
    /// LRU order over entry ids, least recently used first.
    order: Vec<String>,
    evictions: u64,
    invalidated: u64,
}

impl CacheStore {
    /// An empty, purely in-memory store (nothing is ever written to disk).
    pub fn in_memory(
        capacity: usize,
        rule_set_version: u32,
        cost_model_version: u32,
    ) -> CacheStore {
        CacheStore {
            root: None,
            capacity: capacity.max(1),
            rule_set_version,
            cost_model_version,
            entries: HashMap::new(),
            order: Vec::new(),
            evictions: 0,
            invalidated: 0,
        }
    }

    /// Opens (or initialises) the store at `root`, dropping every persisted entry whose
    /// generation does not match `rule_set_version`/`cost_model_version` and reporting the
    /// drop to `collector` as a [`Event::CacheInvalidate`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the directory cannot be created or the store files
    /// cannot be read.
    pub fn open(
        root: &Path,
        capacity: usize,
        rule_set_version: u32,
        cost_model_version: u32,
        collector: &dyn Collector,
    ) -> Result<CacheStore, ServiceError> {
        std::fs::create_dir_all(root)
            .map_err(|e| ServiceError::Io(format!("create {}: {e}", root.display())))?;
        let mut store = CacheStore::in_memory(capacity, rule_set_version, cost_model_version);
        store.root = Some(root.to_path_buf());

        let index_path = root.join("index.json");
        let store_path = root.join("store.jsonl");
        if !index_path.exists() || !store_path.exists() {
            return Ok(store);
        }
        let index_bytes = std::fs::read(&index_path)
            .map_err(|e| ServiceError::Io(format!("read {}: {e}", index_path.display())))?;
        let store_bytes = std::fs::read(&store_path)
            .map_err(|e| ServiceError::Io(format!("read {}: {e}", store_path.display())))?;
        // Decoded line by line, so a byte that is not UTF-8 costs the line it sits in and
        // not the store (`None` here, dropped as unreadable below).
        let lines: Vec<Option<&str>> = store_bytes
            .split(|b| *b == b'\n')
            .map(|line| std::str::from_utf8(line).ok())
            .filter(|line| line.is_none_or(|l| !l.trim().is_empty()))
            .collect();

        let index = std::str::from_utf8(&index_bytes)
            .ok()
            .and_then(|text| parse(text).ok());
        let stale_reason = match &index {
            None => Some("corrupt index".to_string()),
            Some(doc) => {
                let schema = doc.get("schema").and_then(Json::as_str);
                let rsv = doc.get("rule_set_version").and_then(Json::as_f64);
                let cmv = doc.get("cost_model_version").and_then(Json::as_f64);
                if schema != Some(STORE_SCHEMA) {
                    Some("incompatible store schema".to_string())
                } else if rsv != Some(f64::from(rule_set_version)) {
                    Some(format!(
                        "rule set moved to v{rule_set_version} (store has v{})",
                        rsv.unwrap_or(0.0)
                    ))
                } else if cmv != Some(f64::from(cost_model_version)) {
                    Some(format!(
                        "cost model moved to v{cost_model_version} (store has v{})",
                        cmv.unwrap_or(0.0)
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(reason) = stale_reason {
            store.invalidated += lines.len() as u64;
            if collector.enabled() && !lines.is_empty() {
                collector.record(Event::CacheInvalidate {
                    evicted: lines.len() as u32,
                    reason,
                });
            }
            // Rewrite the now-empty store so a stale generation is dropped exactly once.
            store.persist()?;
            return Ok(store);
        }

        let mut dropped = 0u32;
        for line in lines {
            match line
                .and_then(|l| parse(l).ok())
                .as_ref()
                .and_then(entry_from_json)
            {
                Some(entry) => {
                    store.order.push(entry.key.id.clone());
                    store.entries.insert(entry.key.id.clone(), entry);
                }
                None => dropped += 1,
            }
        }
        if dropped > 0 {
            store.invalidated += u64::from(dropped);
            if collector.enabled() {
                collector.record(Event::CacheInvalidate {
                    evicted: dropped,
                    reason: "unreadable entries (corruption or renamed rules)".to_string(),
                });
            }
        }
        // Restore the persisted LRU order (ids missing from it sort last, by id).
        if let Some(order) = index
            .as_ref()
            .and_then(|d| d.get("order"))
            .and_then(Json::as_arr)
        {
            let persisted: Vec<String> = order
                .iter()
                .filter_map(|v| v.as_str())
                .filter(|id| store.entries.contains_key(*id))
                .map(str::to_string)
                .collect();
            let mut rest: Vec<String> = store
                .order
                .iter()
                .filter(|id| !persisted.contains(id))
                .cloned()
                .collect();
            rest.sort();
            store.order = persisted;
            store.order.extend(rest);
        }
        Ok(store)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries dropped by LRU pressure or collisions since this store was opened.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total entries dropped by version/corruption invalidation since this store was opened.
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    fn touch(&mut self, id: &str) {
        if let Some(at) = self.order.iter().position(|o| o == id) {
            let id = self.order.remove(at);
            self.order.push(id);
        }
    }

    /// Looks up `key`, enforcing the collision guard: an entry at the same address whose
    /// canonical rendering differs is *not* served — it is evicted (reason `collision`) and
    /// the lookup misses, so the caller re-derives and replaces it.
    pub(crate) fn lookup(
        &mut self,
        key: &CacheKey,
        collector: &dyn Collector,
    ) -> Option<CachedDerivation> {
        let entry = self.entries.get(&key.id)?;
        if entry.key.rendering != key.rendering {
            self.remove(&key.id.clone(), "collision", collector);
            return None;
        }
        let payload = entry.payload.clone();
        self.touch(&key.id);
        Some(payload)
    }

    /// Removes one entry, counting and reporting the eviction.
    pub(crate) fn remove(&mut self, id: &str, reason: &'static str, collector: &dyn Collector) {
        if self.entries.remove(id).is_some() {
            self.order.retain(|o| o != id);
            self.evictions += 1;
            if collector.enabled() {
                collector.record(Event::CacheEvict {
                    key: id.to_string(),
                    reason,
                });
            }
        }
    }

    /// Inserts (or replaces) an entry as most recently used, then evicts least-recently-used
    /// entries until the store is back within capacity.
    pub(crate) fn insert(&mut self, entry: StoredEntry, collector: &dyn Collector) {
        let id = entry.key.id.clone();
        if self.entries.insert(id.clone(), entry).is_some() {
            self.touch(&id);
        } else {
            self.order.push(id);
        }
        while self.entries.len() > self.capacity {
            let lru = self.order[0].clone();
            self.remove(&lru, "lru", collector);
        }
    }

    /// The tuned points of entries structurally similar to `skeleton` on `device` (shared
    /// high-level pattern skeleton, same device, different entry), most recently used first
    /// — the warm-start seeds for a cache-miss search.
    pub(crate) fn similar(
        &self,
        skeleton: &str,
        device: &str,
        exclude: &str,
    ) -> Vec<(RuleOptions, LaunchConfig)> {
        self.order
            .iter()
            .rev()
            .filter_map(|id| self.entries.get(id))
            .filter(|e| e.key.id != exclude && e.key.device == device && e.key.skeleton == skeleton)
            .map(|e| (e.payload.rule_options.clone(), e.payload.launch))
            .collect()
    }

    /// Writes the store to its directory (no-op for in-memory stores). Both files are
    /// written to a temporary sibling and renamed into place, so readers never observe a
    /// partial store.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when a file cannot be written or renamed.
    pub fn persist(&self) -> Result<(), ServiceError> {
        let Some(root) = &self.root else {
            return Ok(());
        };
        let mut ids: Vec<&String> = self.entries.keys().collect();
        ids.sort();
        let mut lines = String::new();
        for id in ids {
            lines.push_str(&entry_to_json(&self.entries[id]).render_compact());
            lines.push('\n');
        }
        let index = Json::obj([
            ("schema", Json::str(STORE_SCHEMA)),
            (
                "rule_set_version",
                Json::num(f64::from(self.rule_set_version)),
            ),
            (
                "cost_model_version",
                Json::num(f64::from(self.cost_model_version)),
            ),
            (
                "order",
                Json::Arr(self.order.iter().map(Json::str).collect()),
            ),
        ]);
        write_atomic(&root.join("store.jsonl"), &lines)?;
        write_atomic(&root.join("index.json"), &index.render())
    }
}

fn write_atomic(path: &Path, content: &str) -> Result<(), ServiceError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)
        .map_err(|e| ServiceError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        ServiceError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_telemetry::{counts_by_kind, InMemory, Null};

    fn entry(id: &str, rendering: &str, skeleton: &str) -> StoredEntry {
        StoredEntry {
            key: CacheKey {
                id: id.to_string(),
                hash: 0xabcd,
                rendering: rendering.to_string(),
                skeleton: skeleton.to_string(),
                device: "nvidia".to_string(),
            },
            payload: CachedDerivation {
                estimated_time: 42.5,
                steps: Vec::new(),
                rule_options: RuleOptions::default(),
                launch: LaunchConfig::d1(64, 16),
                kernel_source: format!("kernel void {id}() {{}}"),
            },
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("lift-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn persists_and_reopens_identically_with_lru_order() {
        let root = temp_root("roundtrip");
        let mut store = CacheStore::open(&root, 8, 1, 1, &Null).unwrap();
        store.insert(entry("a", "ra", "s"), &Null);
        store.insert(entry("b", "rb", "s"), &Null);
        // Touch `a` so the persisted LRU order is [b, a].
        let key_a = entry("a", "ra", "s").key;
        assert!(store.lookup(&key_a, &Null).is_some());
        store.persist().unwrap();

        let mut back = CacheStore::open(&root, 8, 1, 1, &Null).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.order, vec!["b".to_string(), "a".to_string()]);
        assert_eq!(
            back.lookup(&key_a, &Null).unwrap().kernel_source,
            "kernel void a() {}"
        );
        // Persisting an unchanged store is byte-identical (deterministic format).
        back.persist().unwrap();
        let first = std::fs::read_to_string(root.join("store.jsonl")).unwrap();
        back.persist().unwrap();
        assert_eq!(
            first,
            std::fs::read_to_string(root.join("store.jsonl")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn capacity_overflow_evicts_the_least_recently_used() {
        let sink = InMemory::default();
        let mut store = CacheStore::in_memory(2, 1, 1);
        store.insert(entry("a", "ra", "s"), &sink);
        store.insert(entry("b", "rb", "s"), &sink);
        // `a` becomes most recently used, so inserting `c` must evict `b`.
        assert!(store.lookup(&entry("a", "ra", "s").key, &sink).is_some());
        store.insert(entry("c", "rc", "s"), &sink);
        assert_eq!(store.len(), 2);
        assert!(store.entries.contains_key("a"));
        assert!(!store.entries.contains_key("b"));
        assert_eq!(store.evictions(), 1);
        let counts = counts_by_kind(&sink.events());
        assert_eq!(
            counts.iter().find(|(k, _)| *k == "cache_evict"),
            Some(&("cache_evict", 1))
        );
    }

    #[test]
    fn collision_guard_never_serves_a_rendering_mismatch() {
        let sink = InMemory::default();
        let mut store = CacheStore::in_memory(4, 1, 1);
        store.insert(entry("a", "the real program", "s"), &sink);
        // Same 16-hex address, different canonical rendering: a 64-bit hash collision.
        let mut colliding = entry("a", "a different program", "s").key;
        colliding.hash = 0xabcd;
        assert_eq!(store.lookup(&colliding, &sink), None, "collision is a miss");
        assert!(
            store.is_empty(),
            "the colliding entry was evicted, not kept"
        );
        let events = sink.events();
        assert!(events.iter().any(|e| e.event.kind() == "cache_evict"));
    }

    #[test]
    fn version_bump_invalidates_the_whole_persisted_generation() {
        let root = temp_root("invalidate");
        let mut store = CacheStore::open(&root, 8, 1, 1, &Null).unwrap();
        store.insert(entry("a", "ra", "s"), &Null);
        store.insert(entry("b", "rb", "s"), &Null);
        store.persist().unwrap();

        let sink = InMemory::default();
        let bumped = CacheStore::open(&root, 8, 2, 1, &sink).unwrap();
        assert!(bumped.is_empty(), "a rule-set bump drops every entry");
        assert_eq!(bumped.invalidated(), 2);
        let events = sink.events();
        let invalidations: Vec<_> = events
            .iter()
            .filter(|e| e.event.kind() == "cache_invalidate")
            .collect();
        assert_eq!(
            invalidations.len(),
            1,
            "one invalidation for the generation"
        );
        // The stale lines are gone from disk too, not merely skipped.
        let text = std::fs::read_to_string(root.join("store.jsonl")).unwrap();
        assert!(
            text.is_empty(),
            "stale entries are dropped from the store file"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_non_utf8_byte_costs_one_line_or_the_index_never_the_open() {
        let root = temp_root("non-utf8");
        let mut store = CacheStore::open(&root, 8, 1, 1, &Null).unwrap();
        for id in ["a", "b", "c"] {
            store.insert(entry(id, id, "s"), &Null);
        }
        store.persist().unwrap();
        let corrupt = |file: &str, at: usize| {
            let path = root.join(file);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at] = 0xFF;
            std::fs::write(&path, bytes).unwrap();
        };
        let reasons = |sink: InMemory| -> Vec<String> {
            sink.into_events()
                .into_iter()
                .filter_map(|e| match e.event {
                    Event::CacheInvalidate { reason, .. } => Some(reason),
                    _ => None,
                })
                .collect()
        };

        // One byte of the second line: that entry is dropped and counted, the rest load.
        let store_text = std::fs::read_to_string(root.join("store.jsonl")).unwrap();
        corrupt("store.jsonl", store_text.find('\n').unwrap() + 10);
        let sink = InMemory::default();
        let back = CacheStore::open(&root, 8, 1, 1, &sink).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.entries.contains_key("a") && back.entries.contains_key("c"));
        assert_eq!(back.invalidated(), 1);
        assert_eq!(
            reasons(sink),
            ["unreadable entries (corruption or renamed rules)"]
        );

        // One byte of the index: the existing corrupt-index path, which drops the generation.
        back.persist().unwrap();
        corrupt("index.json", 5);
        let sink = InMemory::default();
        let back = CacheStore::open(&root, 8, 1, 1, &sink).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.invalidated(), 2);
        assert_eq!(reasons(sink), ["corrupt index"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn similar_returns_same_skeleton_entries_most_recent_first() {
        let mut store = CacheStore::in_memory(8, 1, 1);
        store.insert(entry("a", "ra", "dot"), &Null);
        store.insert(entry("b", "rb", "mm"), &Null);
        store.insert(entry("c", "rc", "dot"), &Null);
        let seeds = store.similar("dot", "nvidia", "c");
        assert_eq!(
            seeds.len(),
            1,
            "same skeleton, same device, not the entry itself"
        );
        assert_eq!(store.similar("dot", "amd", "x"), Vec::new());
        let both = store.similar("dot", "nvidia", "zz");
        assert_eq!(both.len(), 2);
    }
}
