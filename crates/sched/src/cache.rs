//! The byte-keyed result cache shared by every engine over it.
//!
//! A [`CacheKey`] hashes the request as submitted — script bytes, payload
//! bytes, entry name — so it needs no `Context` and no parse, and
//! [`crate::Engine::run_batch`] probes on the submitting thread. Equal
//! keys mean equal bytes (up to a 64-bit FNV-1a collision per text), so a
//! cached value is what re-running the job would produce; see the crate
//! docs on cache-key soundness. A value is a job's outcome
//! ([`CachedOutcome`]): the printed output module plus the interpreter
//! statistics a [`crate::job::JobOutput`] needs, or the deterministic
//! failure the job ended with ([`CachedFailure`]).
//!
//! The cache is a plain `Mutex` around a map with last-used ticks and a
//! tick-ordered index beside it: a job touches it at most twice (the
//! probe, one insert after a miss), and LRU eviction takes the index's
//! first entry, O(log n).

use crate::job::JobError;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};
use td_support::{flight, metrics};

/// Cache key: hashes of the request bytes. The entry participates because
/// a script module may contain several named sequences — two jobs over
/// identical texts but different entry points run different schedules and
/// must not share an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Hash of the script text's bytes and length.
    pub script_fp: u64,
    /// Hash of the payload text's bytes and length.
    pub payload_fp: u64,
    /// [`fnv1a`] of the entry symbol name.
    pub entry_fp: u64,
}

impl CacheKey {
    /// The key of one request.
    pub fn of(script: &str, payload: &str, entry: &str) -> CacheKey {
        CacheKey {
            script_fp: text_hash(script),
            payload_fp: text_hash(payload),
            entry_fp: fnv1a(entry.as_bytes()),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash over more bytes: `fnv1a_fold(fnv1a(a), b)` is
/// [`fnv1a`] of `a` followed by `b`.
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// [`fnv1a`] of a text with its length folded in after the bytes.
fn text_hash(text: &str) -> u64 {
    fnv1a_fold(fnv1a(text.as_bytes()), &(text.len() as u64).to_le_bytes())
}

/// Cached outcome of one successful job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResult {
    /// The transformed payload module, printed.
    pub module_text: String,
    /// Transform ops the interpreter executed to produce it.
    pub transforms_executed: usize,
}

/// Cached outcome of one job that failed deterministically: the
/// [`JobError`] exactly as the job reported it, so a cached failure prints
/// byte-identically to an executed one. Only the errors that are a pure
/// function of the request's bytes are kept ([`CachedFailure::of`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedFailure(JobError);

impl CachedFailure {
    /// The cacheable failure `error` is, if it is one: a transform failure
    /// (silenceable or definite, after the job's retries), a parse error
    /// or a missing entry sequence. A panic, a deadline and a cancellation
    /// describe one execution, not the request, and are `None`.
    pub fn of(error: &JobError) -> Option<CachedFailure> {
        match error {
            JobError::Transform { .. } | JobError::Parse { .. } | JobError::EntryMissing { .. } => {
                Some(CachedFailure(error.clone()))
            }
            JobError::Panicked { .. } | JobError::DeadlineExceeded | JobError::Cancelled => None,
        }
    }

    /// The error the job reported.
    pub fn error(&self) -> &JobError {
        &self.0
    }

    /// The error the job reported, by value.
    pub fn into_error(self) -> JobError {
        self.0
    }
}

/// What one cache entry holds: a job's result or its deterministic failure.
pub type CachedOutcome = Result<CachedResult, CachedFailure>;

/// A second-level persistence layer behind the in-memory [`ResultCache`]:
/// consulted on a memory miss, written through on every insert. `td-serve`
/// implements this with a content-addressed on-disk store so the result
/// cache survives daemon restarts; tests can implement it with a plain
/// map. Implementations must be safe to call from any thread and should
/// treat stores as best-effort (a failed write only loses a future warm
/// hit, never correctness).
///
/// The cache calls only [`CachePersist::load_outcome`] and
/// [`CachePersist::store_outcome`]. Their defaults keep successes through
/// `load`/`store` and never keep a failure, so a layer that implements
/// only those two holds what it held before failures were cached.
pub trait CachePersist: Send + Sync {
    /// Looks up the successful result stored under `key`.
    fn load(&self, key: &CacheKey) -> Option<CachedResult>;
    /// Writes a successful result through to the persistent layer.
    fn store(&self, key: &CacheKey, value: &CachedResult);
    /// Looks up the outcome stored under `key`, failures included.
    fn load_outcome(&self, key: &CacheKey) -> Option<CachedOutcome> {
        self.load(key).map(Ok)
    }
    /// Writes an outcome through to the persistent layer.
    fn store_outcome(&self, key: &CacheKey, outcome: &CachedOutcome) {
        if let Ok(value) = outcome {
            self.store(key, value);
        }
    }
}

/// Counters describing cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry (in memory or in the persistent
    /// layer — the subset served by the latter is also in `disk_hits`).
    pub hits: u64,
    /// Lookups that found nothing (including all lookups on a disabled
    /// cache).
    pub misses: u64,
    /// New entries stored. Same-key replacements are *not* inserts — they
    /// are counted in `replacements` instead.
    pub inserts: u64,
    /// Entries evicted to make room. A same-key replacement displaces no
    /// victim and is deliberately not counted here.
    pub evictions: u64,
    /// Same-key inserts that overwrote a live entry (neither a hit, nor an
    /// insert, nor an eviction).
    pub replacements: u64,
    /// The subset of `hits` served by the persistent layer
    /// ([`CachePersist`]) rather than memory — the warm-start signal after
    /// a restart.
    pub disk_hits: u64,
}

impl CacheStats {
    /// Counter deltas since `earlier` (used to report per-batch stats from
    /// cumulative engine counters).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            replacements: self.replacements - earlier.replacements,
            disk_hits: self.disk_hits - earlier.disk_hits,
        }
    }

    /// Hit rate in `[0, 1]`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of lookups served by the persistent layer, in `[0, 1]` —
    /// the warm-start hit rate a freshly restarted `td-serve` daemon
    /// reports.
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }
}

struct Entry {
    outcome: CachedOutcome,
    last_used: u64,
}

struct CacheState {
    map: HashMap<CacheKey, Entry>,
    /// Every entry's key by its `last_used` tick, least recent first: the
    /// LRU victim is the first. Ticks are unique, one per lock holder.
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    stats: CacheStats,
}

impl CacheState {
    /// The next tick.
    fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A bounded, thread-safe LRU result cache, optionally backed by a
/// persistent second level ([`CachePersist`]).
pub struct ResultCache {
    capacity: usize,
    state: Mutex<CacheState>,
    persist: Option<Arc<dyn CachePersist>>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching entirely (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            persist: None,
        }
    }

    /// A cache backed by a persistent layer: memory misses fall through to
    /// the layer's `load_outcome` (a hit is promoted into memory and
    /// counted as both a hit and a `disk_hit`), and inserts write through
    /// via its `store_outcome`. With capacity 0 the memory level is
    /// disabled but the persistent level still serves and stores — a
    /// daemon restarted with an empty memory cache starts warm.
    pub fn with_persistence(capacity: usize, persist: Arc<dyn CachePersist>) -> Self {
        let mut cache = ResultCache::new(capacity);
        cache.persist = Some(persist);
        cache
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // Nothing panics while holding the lock, but a poisoned cache is
        // still fully usable: recover the inner state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`ResultCache::lookup`] for a successful result only: an entry that
    /// holds a failure counts as the hit it is and answers `None`.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        self.lookup(key)?.ok()
    }

    /// Looks up `key`'s outcome, refreshing its recency on a hit. A memory
    /// miss falls through to the persistent layer (if any); a persistent
    /// hit is promoted into memory and counted as both a hit and a
    /// `disk_hit`. Success or failure, a found entry is a hit. Records the
    /// outcome in [`CacheStats`] and as `sched.cache.hit` /
    /// `sched.cache.disk_hit` / `sched.cache.miss` metrics counters on the
    /// calling thread.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome> {
        let mut state = self.lock();
        let tick = state.tick();
        if let Some(entry) = state.map.get_mut(key) {
            let last_used = std::mem::replace(&mut entry.last_used, tick);
            let outcome = entry.outcome.clone();
            state.recency.remove(&last_used);
            state.recency.insert(tick, *key);
            state.stats.hits += 1;
            drop(state);
            metrics::counter("sched.cache.hit", 1);
            flight::record("cache.hit", &[("script_fp", key.script_fp.to_string())]);
            return Some(outcome);
        }
        drop(state);
        // The persistent layer is consulted outside the lock: disk I/O
        // must not serialize other threads' memory lookups. Two threads
        // racing the same key may both load and promote — idempotent,
        // since equal keys imply identical values.
        if let Some(persist) = &self.persist {
            if let Some(outcome) = persist.load_outcome(key) {
                let mut state = self.lock();
                if self.capacity > 0 {
                    // A promotion is neither an insert nor a replacement:
                    // the entry was neither computed nor displaced by new
                    // work.
                    let tick = state.tick();
                    self.store_entry(&mut state, *key, outcome.clone(), tick);
                }
                state.stats.hits += 1;
                state.stats.disk_hits += 1;
                drop(state);
                metrics::counter("sched.cache.hit", 1);
                metrics::counter("sched.cache.disk_hit", 1);
                flight::record(
                    "cache.disk_hit",
                    &[("script_fp", key.script_fp.to_string())],
                );
                return Some(outcome);
            }
        }
        let mut state = self.lock();
        state.stats.misses += 1;
        drop(state);
        metrics::counter("sched.cache.miss", 1);
        flight::record("cache.miss", &[("script_fp", key.script_fp.to_string())]);
        None
    }

    /// Stores a successful result: [`ResultCache::insert_outcome`] of
    /// `Ok(value)`.
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        self.insert_outcome(key, Ok(value));
    }

    /// Stores `outcome` under `key`, evicting the least-recently-used
    /// entry if the cache is full. Replacing a live entry under the same
    /// key is counted as a `replacement` — *not* as an insert, a hit, or an
    /// eviction (no victim was displaced; see [`CacheStats`]). Writes
    /// through to the persistent layer even when the memory level is
    /// disabled (capacity 0).
    pub fn insert_outcome(&self, key: CacheKey, outcome: CachedOutcome) {
        if let Some(persist) = &self.persist {
            persist.store_outcome(&key, &outcome);
        }
        if self.capacity == 0 {
            return;
        }
        let mut state = self.lock();
        let tick = state.tick();
        let replaced = self.store_entry(&mut state, key, outcome, tick);
        if replaced {
            state.stats.replacements += 1;
            metrics::counter("sched.cache.replacement", 1);
        } else {
            state.stats.inserts += 1;
        }
    }

    /// Inserts into the memory map, evicting the LRU entry when a *new*
    /// key would overflow capacity. Returns whether a live entry under the
    /// same key was replaced.
    fn store_entry(
        &self,
        state: &mut CacheState,
        key: CacheKey,
        outcome: CachedOutcome,
        tick: u64,
    ) -> bool {
        let entry = Entry {
            outcome,
            last_used: tick,
        };
        let replaced = match state.map.insert(key, entry) {
            Some(old) => {
                state.recency.remove(&old.last_used);
                true
            }
            None => false,
        };
        if !replaced && state.map.len() > self.capacity {
            if let Some((_, victim)) = state.recency.pop_first() {
                state.map.remove(&victim);
                state.stats.evictions += 1;
                metrics::counter("sched.cache.eviction", 1);
            }
        }
        state.recency.insert(tick, key);
        replaced
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: u64, p: u64) -> CacheKey {
        CacheKey {
            script_fp: s,
            payload_fp: p,
            entry_fp: fnv1a(b"main"),
        }
    }

    fn value(text: &str) -> CachedResult {
        CachedResult {
            module_text: text.to_owned(),
            transforms_executed: 1,
        }
    }

    #[test]
    fn key_of_a_request_is_a_function_of_its_bytes() {
        let base = CacheKey::of("script", "tensor<8x8xf32>", "main");
        assert_eq!(base, CacheKey::of("script", "tensor<8x8xf32>", "main"));
        let other_payload = CacheKey::of("script", "tensor<8x16xf32>", "main");
        assert_ne!(base.payload_fp, other_payload.payload_fp);
        assert_eq!(base.script_fp, other_payload.script_fp);
        assert_ne!(
            base.script_fp,
            CacheKey::of("script ", "", "main").script_fp
        );
        assert_ne!(base.entry_fp, CacheKey::of("script", "", "other").entry_fp);
        assert_ne!(text_hash(""), fnv1a(b""), "the length is folded in");
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ResultCache::new(4);
        assert_eq!(cache.get(&key(1, 1)), None);
        cache.insert(key(1, 1), value("a"));
        assert_eq!(cache.get(&key(1, 1)).unwrap().module_text, "a");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(key(1, 1), value("a"));
        cache.insert(key(2, 2), value("b"));
        // Touch (1,1) so (2,2) becomes the LRU victim.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(3, 3), value("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(2, 2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(&key(3, 3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = ResultCache::new(2);
        cache.insert(key(1, 1), value("a"));
        cache.insert(key(2, 2), value("b"));
        cache.insert(key(1, 1), value("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&key(1, 1)).unwrap().module_text, "a2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(key(1, 1), value("a"));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, 1)), None);
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    /// Regression: a same-key insert replaces the live entry and must be
    /// counted as a *replacement* — not as an insert (which would
    /// overstate distinct results computed), not as an eviction (no
    /// victim was displaced), and not as a hit.
    #[test]
    fn replacement_counts_as_neither_hit_nor_eviction_nor_insert() {
        let cache = ResultCache::new(2);
        cache.insert(key(1, 1), value("a"));
        cache.insert(key(1, 1), value("a2"));
        cache.insert(key(1, 1), value("a3"));
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1, "one distinct key was ever inserted");
        assert_eq!(stats.replacements, 2, "two same-key overwrites");
        assert_eq!(stats.evictions, 0, "replacement displaces no victim");
        assert_eq!(stats.hits, 0, "inserting is not a lookup");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 1)).unwrap().module_text, "a3");
    }

    struct MapPersist(Mutex<HashMap<CacheKey, CachedResult>>);

    impl MapPersist {
        fn new() -> Arc<Self> {
            Arc::new(MapPersist(Mutex::new(HashMap::new())))
        }
    }

    impl CachePersist for MapPersist {
        fn load(&self, key: &CacheKey) -> Option<CachedResult> {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn store(&self, key: &CacheKey, value: &CachedResult) {
            self.0.lock().unwrap().insert(*key, value.clone());
        }
    }

    #[test]
    fn persistent_layer_serves_and_promotes_on_memory_miss() {
        let persist = MapPersist::new();
        let warm = ResultCache::with_persistence(4, Arc::clone(&persist) as Arc<dyn CachePersist>);
        // Simulate a pre-restart write: the entry exists only on "disk".
        persist.store(&key(1, 1), &value("a"));
        let got = warm
            .get(&key(1, 1))
            .expect("served from the persistent layer");
        assert_eq!(got.module_text, "a");
        let stats = warm.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 1, 0));
        assert_eq!(stats.inserts, 0, "promotion is not an insert");
        // Promoted: the second lookup is a pure memory hit.
        assert!(warm.get(&key(1, 1)).is_some());
        let stats = warm.stats();
        assert_eq!((stats.hits, stats.disk_hits), (2, 1));
        assert!((stats.disk_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inserts_write_through_even_with_memory_disabled() {
        let persist = MapPersist::new();
        let cache = ResultCache::with_persistence(0, Arc::clone(&persist) as Arc<dyn CachePersist>);
        cache.insert(key(1, 1), value("a"));
        assert!(cache.is_empty(), "memory level stays disabled");
        // A capacity-0 cache with persistence still serves from disk.
        assert_eq!(cache.get(&key(1, 1)).unwrap().module_text, "a");
        assert_eq!(cache.stats().disk_hits, 1);
    }

    fn failure(message: &str) -> CachedFailure {
        CachedFailure::of(&JobError::Transform {
            message: message.to_owned(),
            silenceable: false,
        })
        .expect("a transform failure is cacheable")
    }

    #[test]
    fn only_deterministic_errors_are_cacheable() {
        let cacheable = [
            JobError::Transform {
                message: "m".into(),
                silenceable: true,
            },
            JobError::Parse {
                what: "script",
                message: "m".into(),
            },
            JobError::EntryMissing {
                name: "main".into(),
            },
        ];
        for error in cacheable {
            let failure = CachedFailure::of(&error).expect("cacheable");
            assert_eq!(failure.error(), &error);
            assert_eq!(failure.into_error(), error);
        }
        for error in [
            JobError::Panicked {
                message: "m".into(),
            },
            JobError::DeadlineExceeded,
            JobError::Cancelled,
        ] {
            assert_eq!(CachedFailure::of(&error), None, "{error}");
        }
    }

    #[test]
    fn a_failure_entry_is_a_hit_that_get_answers_none() {
        let cache = ResultCache::new(4);
        cache.insert_outcome(key(1, 1), Err(failure("no match")));
        assert_eq!(cache.lookup(&key(1, 1)), Some(Err(failure("no match"))));
        assert_eq!(cache.get(&key(1, 1)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (2, 0, 1));
        // A success under the same key replaces it.
        cache.insert(key(1, 1), value("a"));
        assert_eq!(cache.get(&key(1, 1)), Some(value("a")));
        assert_eq!(cache.stats().replacements, 1);
    }

    /// The tick-ordered index picks the same victims as a scan for the
    /// least recent entry, and the counters match it, over a long mixed
    /// sequence of lookups, inserts and replacements.
    #[test]
    fn lru_index_evicts_exactly_what_a_full_scan_would() {
        let capacity = 16;
        let cache = ResultCache::new(capacity);
        // The model: key -> last use, scanned for the minimum.
        let mut model: HashMap<CacheKey, u64> = HashMap::new();
        let (mut now, mut evictions) = (0u64, 0u64);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = key(rng % 40, 0);
            now += 1;
            if rng.is_multiple_of(3) {
                let hit = cache.lookup(&k).is_some();
                assert_eq!(hit, model.contains_key(&k));
                if hit {
                    model.insert(k, now);
                }
            } else {
                if !model.contains_key(&k) && model.len() == capacity {
                    let (&victim, _) = model.iter().min_by_key(|(_, used)| **used).unwrap();
                    model.remove(&victim);
                    evictions += 1;
                }
                model.insert(k, now);
                cache.insert(k, value("v"));
            }
        }
        assert_eq!(cache.len(), model.len());
        assert_eq!(cache.stats().evictions, evictions);
        for k in model.keys() {
            assert!(cache.lookup(k).is_some(), "{k:?} survives in both");
        }
    }

    #[test]
    fn a_layer_with_only_load_and_store_keeps_no_failure() {
        let persist = MapPersist::new();
        let cache = ResultCache::with_persistence(0, Arc::clone(&persist) as Arc<dyn CachePersist>);
        cache.insert_outcome(key(1, 1), Err(failure("no match")));
        cache.insert(key(2, 2), value("b"));
        assert_eq!(persist.0.lock().unwrap().len(), 1, "the success only");
        assert_eq!(cache.lookup(&key(1, 1)), None);
        assert_eq!(cache.lookup(&key(2, 2)), Some(Ok(value("b"))));
    }

    #[test]
    fn stats_delta_since() {
        let cache = ResultCache::new(4);
        cache.insert(key(1, 1), value("a"));
        let before = cache.stats();
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(9, 9)).is_none());
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.inserts), (1, 1, 0));
    }
}
