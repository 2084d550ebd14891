//! The content-addressed on-disk result store: the persistence layer
//! behind the engine's in-memory cache ([`td_sched::CachePersist`]).
//!
//! This is the cache-as-tuning-database promoted to a service asset: a
//! result computed for any tenant, in any past daemon process, is served
//! to every future request with identical inputs. Three properties make
//! that safe and restart-proof:
//!
//! * **Content addressing.** The file name *is* the cache key — the three
//!   hashes of the request's script bytes, payload bytes and entry name
//!   (`td_sched::CacheKey`, the same key the memory level uses) rendered
//!   as fixed-width hex. Equal names mean equal requests, so a stale-file
//!   race can at worst rewrite a file with identical content.
//! * **Atomic writes.** Entries are written to a unique `*.tmp` sibling
//!   and `rename`d into place; readers never observe a half-written
//!   entry, and a crash mid-store leaves only garbage tmp files that are
//!   swept on the next open.
//! * **Versioned entry format.** Every entry starts with
//!   `tdserve-cache <version>`; unknown versions, truncated bodies, and
//!   length mismatches are treated as misses (and the corrupt file is
//!   left for inspection, never trusted). Bumping [`FORMAT_VERSION`]
//!   invalidates the whole store without deleting anything.
//!
//! Store I/O is best-effort by design: a failed write costs a future warm
//! hit, never correctness. Counters land in `serve.disk.*` metrics on the
//! calling thread and in process-wide atomics surfaced by
//! [`DiskStore::stats_json`].

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use td_sched::{CacheKey, CachePersist, CachedResult};
use td_support::metrics;

/// Entry-format version; bump to invalidate all existing entries. Version
/// 1 entries were named by structural fingerprints, not by request bytes,
/// and must never be served under a byte key.
pub const FORMAT_VERSION: u32 = 2;

/// Magic line prefix of an entry file.
const MAGIC: &str = "tdserve-cache";

/// Process-wide counters for one store.
#[derive(Debug, Default)]
struct Counters {
    loads: AtomicU64,
    hits: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    invalid: AtomicU64,
    evicted: AtomicU64,
    evicted_bytes: AtomicU64,
}

/// A point-in-time snapshot of a store's counters (the `METRICS`
/// exposition's source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Load attempts.
    pub loads: u64,
    /// Load hits.
    pub hits: u64,
    /// Committed stores.
    pub stores: u64,
    /// Failed stores.
    pub store_errors: u64,
    /// Corrupt/foreign-version entries read as misses.
    pub invalid: u64,
    /// Entries evicted by the size cap.
    pub evicted: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Current on-disk footprint of committed entries.
    pub bytes: u64,
}

/// A content-addressed on-disk store of [`CachedResult`]s.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    counters: Counters,
    tmp_seq: AtomicU64,
    /// Size cap (`TD_SERVE_CACHE_MAX_BYTES`); `None` = unbounded.
    max_bytes: Option<u64>,
    /// Approximate committed footprint, maintained incrementally and
    /// re-measured during eviction sweeps.
    bytes: AtomicU64,
    /// Serializes eviction sweeps (stores themselves stay lock-free).
    sweep: std::sync::Mutex<()>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir` and sweeps
    /// leftover `*.tmp` files from crashed writers.
    ///
    /// # Errors
    /// Propagates the `create_dir_all` failure — a service configured with
    /// an unusable cache dir should fail loudly at startup, not silently
    /// run cold forever.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        Self::open_with_limit(dir, None)
    }

    /// [`DiskStore::open`] with a size cap: when committed entries exceed
    /// `max_bytes`, oldest-mtime entries are evicted down to a 90%
    /// watermark after each store. The cap is approximate (entries are
    /// measured, directory overhead is not) and best-effort, like every
    /// other store operation.
    ///
    /// # Errors
    /// Propagates the `create_dir_all` failure.
    pub fn open_with_limit(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut bytes = 0u64;
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                } else if let Ok(meta) = entry.metadata() {
                    bytes += meta.len();
                }
            }
        }
        let store = DiskStore {
            dir,
            counters: Counters::default(),
            tmp_seq: AtomicU64::new(0),
            max_bytes,
            bytes: AtomicU64::new(bytes),
            sweep: std::sync::Mutex::new(()),
        };
        store.evict_if_over();
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed file name of `key`.
    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}{:016x}{:016x}.v{}",
            key.script_fp, key.payload_fp, key.entry_fp, FORMAT_VERSION
        ))
    }

    /// Number of committed entries currently on disk (tmp files excluded).
    pub fn entry_count(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        e.file_name()
                            .to_string_lossy()
                            .ends_with(&format!(".v{FORMAT_VERSION}"))
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Serializes one entry:
    ///
    /// ```text
    /// tdserve-cache 2
    /// transforms <N>
    /// module <byte-length>
    /// <module bytes>
    /// ```
    fn encode_entry(value: &CachedResult) -> Vec<u8> {
        let mut out = Vec::with_capacity(value.module_text.len() + 64);
        let _ = writeln!(out, "{MAGIC} {FORMAT_VERSION}");
        let _ = writeln!(out, "transforms {}", value.transforms_executed);
        let _ = writeln!(out, "module {}", value.module_text.len());
        out.extend_from_slice(value.module_text.as_bytes());
        out
    }

    /// Parses an entry file; `None` on any version/format/length mismatch.
    fn decode_entry(bytes: &[u8]) -> Option<CachedResult> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.splitn(4, '\n');
        let magic = lines.next()?;
        let (tag, version) = magic.split_once(' ')?;
        if tag != MAGIC || version.parse::<u32>().ok()? != FORMAT_VERSION {
            return None;
        }
        let transforms = lines.next()?.strip_prefix("transforms ")?.parse().ok()?;
        let declared: usize = lines.next()?.strip_prefix("module ")?.parse().ok()?;
        let module = lines.next()?;
        if module.len() != declared {
            return None;
        }
        Some(CachedResult {
            module_text: module.to_owned(),
            transforms_executed: transforms,
        })
    }

    /// Service-facing counter snapshot as one JSON object.
    pub fn stats_json(&self) -> String {
        let c = self.counter_values();
        format!(
            "{{\"dir\":{},\"loads\":{},\"hits\":{},\"stores\":{},\
             \"store_errors\":{},\"invalid\":{},\"hit_rate\":{:.4},\
             \"evicted\":{},\"evicted_bytes\":{},\"bytes\":{},\"max_bytes\":{}}}",
            metrics::json_string(&self.dir.to_string_lossy()),
            c.loads,
            c.hits,
            c.stores,
            c.store_errors,
            c.invalid,
            if c.loads == 0 {
                0.0
            } else {
                c.hits as f64 / c.loads as f64
            },
            c.evicted,
            c.evicted_bytes,
            c.bytes,
            match self.max_bytes {
                Some(max) => max.to_string(),
                None => "null".to_owned(),
            },
        )
    }

    /// The counters as plain values.
    pub fn counter_values(&self) -> DiskCounters {
        DiskCounters {
            loads: self.counters.loads.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            store_errors: self.counters.store_errors.load(Ordering::Relaxed),
            invalid: self.counters.invalid.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
            evicted_bytes: self.counters.evicted_bytes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Runs an eviction sweep if the store exceeds its cap: re-measures
    /// the directory (the incremental counter drifts under concurrent
    /// writers), then removes oldest-mtime committed entries until the
    /// footprint is under 90% of the cap. Contending sweeps coalesce —
    /// a second caller returns immediately.
    fn evict_if_over(&self) {
        let Some(max) = self.max_bytes else {
            return;
        };
        if self.bytes.load(Ordering::Relaxed) <= max {
            return;
        }
        let Ok(_guard) = self.sweep.try_lock() else {
            return;
        };
        let suffix = format!(".v{FORMAT_VERSION}");
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut measured = 0u64;
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            if !entry.file_name().to_string_lossy().ends_with(&suffix) {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                measured += meta.len();
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                entries.push((mtime, entry.path(), meta.len()));
            }
        }
        let watermark = max.saturating_mul(9) / 10;
        entries.sort_by_key(|(mtime, _, _)| *mtime);
        for (_, path, len) in entries {
            if measured <= watermark {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                measured = measured.saturating_sub(len);
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .evicted_bytes
                    .fetch_add(len, Ordering::Relaxed);
                metrics::counter("serve.disk.evicted", 1);
            }
        }
        self.bytes.store(measured, Ordering::Relaxed);
    }
}

impl CachePersist for DiskStore {
    fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        self.counters.loads.fetch_add(1, Ordering::Relaxed);
        let bytes = fs::read(self.entry_path(key)).ok()?;
        match Self::decode_entry(&bytes) {
            Some(value) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter("serve.disk.hit", 1);
                Some(value)
            }
            None => {
                // Unknown version or corruption: a miss, never an error.
                self.counters.invalid.fetch_add(1, Ordering::Relaxed);
                metrics::counter("serve.disk.invalid", 1);
                None
            }
        }
    }

    fn store(&self, key: &CacheKey, value: &CachedResult) {
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{:016x}.{}.{}.tmp",
            key.script_fp,
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let encoded = Self::encode_entry(value);
        let entry_len = encoded.len() as u64;
        let committed = fs::write(&tmp, encoded)
            .and_then(|()| fs::rename(&tmp, &path))
            .is_ok();
        if committed {
            self.counters.stores.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.disk.store", 1);
            self.bytes.fetch_add(entry_len, Ordering::Relaxed);
            self.evict_if_over();
        } else {
            let _ = fs::remove_file(&tmp);
            self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.disk.store_error", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_sched::cache::fnv1a;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("td-serve-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            script_fp: n,
            payload_fp: n.wrapping_mul(31),
            entry_fp: fnv1a(b"main"),
        }
    }

    fn value(text: &str) -> CachedResult {
        CachedResult {
            module_text: text.to_owned(),
            transforms_executed: 3,
        }
    }

    #[test]
    fn store_then_load_round_trips_across_instances() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.load(&key(1)), None);
        store.store(&key(1), &value("module {\n}\n"));
        assert_eq!(store.load(&key(1)), Some(value("module {\n}\n")));
        // A fresh instance over the same dir — the restart case.
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(1)), Some(value("module {\n}\n")));
        assert_eq!(reopened.entry_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mislengthed_entries_read_as_misses() {
        // A directory left by a version-1 daemon, whose entries were named
        // by structural fingerprints: nothing in it is an entry, nothing
        // is served, nothing is deleted.
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let v1_path = |n: u64| {
            let k = key(n);
            dir.join(format!(
                "{:016x}{:016x}{:016x}.v1",
                k.script_fp, k.payload_fp, k.entry_fp
            ))
        };
        for n in 0..8 {
            fs::write(
                v1_path(n),
                b"tdserve-cache 1\ntransforms 3\nmodule 5\nstale",
            )
            .unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.entry_count(), 0, "v1 files are not entries");
        for n in 0..8 {
            assert_eq!(store.load(&key(n)), None, "v1 entry {n} must not be served");
        }
        assert_eq!(store.counter_values().hits, 0);

        store.store(&key(2), &value("ok"));
        assert_eq!(store.load(&key(2)), Some(value("ok")));
        assert!(v1_path(2).exists(), "old entries are kept for inspection");
        let path = store.entry_path(&key(2));
        fs::write(&path, b"tdserve-cache 2\ntransforms 3\nmodule 999\nok").unwrap();
        assert_eq!(store.load(&key(2)), None, "length mismatch is a miss");
        fs::write(&path, b"tdserve-cache 99\ntransforms 3\nmodule 2\nok").unwrap();
        assert_eq!(store.load(&key(2)), None, "future version is a miss");
        fs::write(&path, b"tdserve-cache 1\ntransforms 3\nmodule 2\nok").unwrap();
        assert_eq!(store.load(&key(2)), None, "past version is a miss");
        assert_eq!(store.counters.invalid.load(Ordering::Relaxed), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_oldest_entries_first() {
        let dir = temp_dir("evict");
        let big = "x".repeat(512);
        // Cap at ~3 entries' worth; store 8 and verify the oldest go.
        let store = DiskStore::open_with_limit(&dir, Some(1800)).unwrap();
        for n in 0..8u64 {
            store.store(&key(n), &value(&big));
            // mtime resolution is coarse on some filesystems; the sort
            // only needs *some* ordering, and same-mtime ties are fine.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let counters = store.counter_values();
        assert!(counters.evicted > 0, "cap must trigger eviction");
        assert!(counters.evicted_bytes > 0);
        assert!(
            counters.bytes <= 1800,
            "footprint {} stays under the cap",
            counters.bytes
        );
        // The newest entry must survive; the oldest must be gone.
        assert_eq!(store.load(&key(7)), Some(value(&big)));
        assert_eq!(store.load(&key(0)), None);
        assert!(store.stats_json().contains("\"evicted\":"));
        // Reopening under the same cap re-measures and stays under it.
        let reopened = DiskStore::open_with_limit(&dir, Some(1800)).unwrap();
        assert!(reopened.counter_values().bytes <= 1800);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("deadbeef.123.0.tmp"), b"half-written").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.entry_count(), 0);
        assert!(!dir.join("deadbeef.123.0.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
