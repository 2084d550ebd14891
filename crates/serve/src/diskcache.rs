//! The content-addressed on-disk result store: the persistence layer
//! behind the engine's in-memory cache ([`td_sched::CachePersist`]).
//!
//! This is the cache-as-tuning-database promoted to a service asset: a
//! result computed for any tenant, in any past daemon process, is served
//! to every future request with identical inputs.
//!
//! The store is an append-only log. Each [`DiskStore`] creates one segment
//! file when it opens (`seg-<seq>-<pid>.v<FORMAT_VERSION>`, `create_new`;
//! `seq` is one past the highest segment in the directory, so names sort
//! by creation, and the pid keeps two daemons off one writer) and appends
//! every entry to it as one record. An in-memory index maps each key to
//! its record's segment, offset and length; it holds no module text.
//! Without a size cap a daemon creates exactly one file in its lifetime.
//! Three properties make the log safe and restart-proof:
//!
//! * **Content addressing.** A record carries its cache key — the three
//!   hashes of the request's script bytes, payload bytes and entry name
//!   (`td_sched::CacheKey`, the same key the memory level uses). Opening a
//!   store scans every segment in name order and indexes each record under
//!   the key it carries; a later record for a key wins, and since equal
//!   keys mean equal requests the record it replaces held the same result.
//!   A load re-checks the key in the record it reads.
//! * **Atomic appends.** A store writes its whole record with one
//!   positioned write and publishes the index entry only after that write
//!   returned, so a reader never sees a partial record. A failed write
//!   leaves the segment's tail where it was, for the next record to
//!   overwrite; a crash mid-append leaves a torn tail that the next open's
//!   scan stops at.
//! * **Versioned, checksummed records.** A record is a fixed header —
//!   magic, [`FORMAT_VERSION`], the three key hashes, the transform count,
//!   the module length and an FNV-1a checksum over all of these and the
//!   module bytes — followed by the module text. A load that finds a wrong
//!   magic, version, key, length or checksum is a miss counted as
//!   `invalid`, never an error; the scan at open counts a torn or corrupt
//!   record the same way and ends that segment there. Segment names carry
//!   the version too, so bumping [`FORMAT_VERSION`] invalidates the whole
//!   store without deleting anything: the per-entry `.v1`/`.v2` files of
//!   earlier formats and any `*.tmp` file are foreign, never read and never
//!   deleted.
//!
//! A live store sees what was on disk when it opened plus its own appends:
//! entries that another live daemon appends after that reach this one at
//! its next restart.
//!
//! With a size cap (`TD_SERVE_CACHE_MAX_BYTES`) the writer rolls to a new
//! segment when a record would take its current one past a quarter of the
//! cap, and eviction deletes the oldest whole segments — never the one
//! being appended — down to 90% of the cap. A segment another live daemon
//! still appends to can be among them; that daemon's later records then
//! last only as long as it runs.
//!
//! Store I/O is best-effort by design: a failed write costs a future warm
//! hit, never correctness. Counters land in `serve.disk.*` metrics on the
//! calling thread and in process-wide atomics surfaced by
//! [`DiskStore::stats_json`].

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use td_sched::cache::{fnv1a, fnv1a_fold};
use td_sched::{CacheKey, CachePersist, CachedResult};
use td_support::metrics;

/// Record-format version; bump to invalidate all existing entries. Version
/// 1 entries were files named by structural fingerprints, version 2
/// entries one file per request-byte key; neither is read.
pub const FORMAT_VERSION: u32 = 3;

/// First bytes of every record.
const MAGIC: [u8; 4] = *b"tdrc";

/// Bytes in a record header: magic, version, the three key hashes, the
/// transform count, the module length and the checksum.
const HEADER_LEN: usize = 56;

/// Where a header's checksum starts; it covers every byte before it.
const CHECKSUM_AT: usize = 48;

/// The scan at open reads each segment through a buffer of this size: a
/// few records' worth, allocated once per segment and freed after it.
const SCAN_BUFFER: usize = 16 * 1024;

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

impl Counters {
    /// Counts one corrupt, torn or foreign record.
    fn invalid(&self) {
        self.invalid.fetch_add(1, Ordering::Relaxed);
        metrics::counter("serve.disk.invalid", 1);
    }
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
    /// Corrupt, torn or foreign-version records met by a load or by the
    /// scan at open.
    pub invalid: u64,
    /// Records in segments deleted by the size cap.
    pub evicted: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Current on-disk footprint of the segments this store knows.
    pub bytes: u64,
}

/// A record's fixed-size header.
#[derive(Clone, Copy, Debug)]
struct Header {
    key: CacheKey,
    transforms: u64,
    module_len: u64,
    checksum: u64,
}

impl Header {
    /// The header of `module` stored under `key`, checksum included.
    fn of(key: &CacheKey, transforms: u64, module: &[u8]) -> Header {
        let mut header = Header {
            key: *key,
            transforms,
            module_len: module.len() as u64,
            checksum: 0,
        };
        header.checksum = fnv1a_fold(header.fields_hash(), module);
        header
    }

    /// Little-endian: magic, version, then six `u64`s (script, payload
    /// and entry hashes, transforms, module length, checksum).
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        let words = [
            self.key.script_fp,
            self.key.payload_fp,
            self.key.entry_fp,
            self.transforms,
            self.module_len,
            self.checksum,
        ];
        for (slot, word) in out[8..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses a header; `None` unless it has this format's magic and
    /// version.
    fn decode(bytes: &[u8; HEADER_LEN]) -> Option<Header> {
        if bytes[..4] != MAGIC || bytes[4..8] != FORMAT_VERSION.to_le_bytes() {
            return None;
        }
        let word = |i: usize| {
            let at = 8 + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
        };
        Some(Header {
            key: CacheKey {
                script_fp: word(0),
                payload_fp: word(1),
                entry_fp: word(2),
            },
            transforms: word(3),
            module_len: word(4),
            checksum: word(5),
        })
    }

    /// The checksum's hash so far: every header byte before the checksum.
    /// Folding the module bytes into it gives the checksum.
    fn fields_hash(&self) -> u64 {
        fnv1a(&self.encode()[..CHECKSUM_AT])
    }
}

/// The result in `record` if it is whole, of this format and stored under
/// `key`.
fn decode_record(key: &CacheKey, mut record: Vec<u8>) -> Option<CachedResult> {
    let header = Header::decode(record.get(..HEADER_LEN)?.try_into().ok()?)?;
    let module = &record[HEADER_LEN..];
    if header.key != *key
        || header.module_len != module.len() as u64
        || fnv1a_fold(header.fields_hash(), module) != header.checksum
    {
        return None;
    }
    let transforms_executed = usize::try_from(header.transforms).ok()?;
    record.drain(..HEADER_LEN);
    Some(CachedResult {
        module_text: String::from_utf8(record).ok()?,
        transforms_executed,
    })
}

/// Reads and checks the record at `reader`'s position, which may take at
/// most `room` bytes: its key and length, or `None` if it is torn,
/// corrupt or foreign.
fn read_record(reader: &mut impl BufRead, room: u64) -> Option<(CacheKey, u64)> {
    let mut bytes = [0u8; HEADER_LEN];
    reader.read_exact(&mut bytes).ok()?;
    let header = Header::decode(&bytes)?;
    let len = header.module_len.checked_add(HEADER_LEN as u64)?;
    if len > room {
        return None;
    }
    let mut hash = header.fields_hash();
    let mut left = header.module_len;
    while left > 0 {
        let chunk = reader.fill_buf().ok()?;
        if chunk.is_empty() {
            return None;
        }
        let n = chunk.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        hash = fnv1a_fold(hash, &chunk[..n]);
        reader.consume(n);
        left -= n as u64;
    }
    (hash == header.checksum).then_some((header.key, len))
}

/// The file name of segment `seq` written by process `pid`.
fn segment_name(seq: u64, pid: u32) -> String {
    format!("seg-{seq:016x}-{pid}.v{FORMAT_VERSION}")
}

/// The sequence number of a segment of this format; `None` for any other
/// file.
fn segment_seq(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("seg-")?
        .strip_suffix(&*format!(".v{FORMAT_VERSION}"))?;
    let (seq, pid) = rest.split_once('-')?;
    pid.parse::<u32>().ok()?;
    (seq.len() == 16)
        .then(|| u64::from_str_radix(seq, 16).ok())
        .flatten()
}

/// Where one record lives.
#[derive(Clone, Debug)]
struct Slot {
    segment: Arc<File>,
    offset: u64,
    len: u64,
}

/// One segment file.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    file: Arc<File>,
    /// Its size; for the writer's, the end of the last whole record
    /// written, where the next one goes.
    bytes: u64,
    records: u64,
}

/// The segment this store appends to.
#[derive(Debug)]
struct Writer {
    seq: u64,
    segment: Segment,
}

impl Writer {
    /// Creates a segment under the first free name from `seq` on.
    fn create(dir: &Path, mut seq: u64) -> std::io::Result<Writer> {
        let pid = std::process::id();
        loop {
            let path = dir.join(segment_name(seq, pid));
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    let segment = Segment {
                        path,
                        file: Arc::new(file),
                        bytes: 0,
                        records: 0,
                    };
                    return Ok(Writer { seq, segment });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

/// What loads read: the key index and the sealed segments it points into.
#[derive(Debug, Default)]
struct Index {
    slots: HashMap<CacheKey, Slot>,
    /// Segments this store no longer appends to, oldest first: the
    /// eviction candidates.
    sealed: VecDeque<Segment>,
}

impl Index {
    /// Indexes `file`'s records in order up to its end or its first torn
    /// or corrupt record, which counts `invalid` and ends the scan. Reads
    /// through a fixed-size buffer; returns the segment's size on disk and
    /// its whole records.
    fn scan(&mut self, file: &Arc<File>, counters: &Counters) -> (u64, u64) {
        let Ok(size) = file.metadata().map(|meta| meta.len()) else {
            return (0, 0);
        };
        let mut reader = BufReader::with_capacity(SCAN_BUFFER, &**file);
        let (mut offset, mut records) = (0, 0);
        while offset < size {
            let Some((key, len)) = read_record(&mut reader, size - offset) else {
                counters.invalid();
                break;
            };
            let slot = Slot {
                segment: Arc::clone(file),
                offset,
                len,
            };
            self.slots.insert(key, slot);
            offset += len;
            records += 1;
        }
        (size, records)
    }
}

/// A content-addressed on-disk store of [`CachedResult`]s.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    counters: Counters,
    /// Size cap (`TD_SERVE_CACHE_MAX_BYTES`); `None` = unbounded.
    max_bytes: Option<u64>,
    /// Bytes in the segments this store knows, the writer's included.
    bytes: AtomicU64,
    /// Serializes appends, rolls and eviction. Lock order: `writer`, then
    /// `index`; a store publishes its record while it still holds this,
    /// so the index's record for a key is the log's newest.
    writer: Mutex<Writer>,
    index: RwLock<Index>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir`: indexes the
    /// segments already there and creates this store's own.
    ///
    /// # Errors
    /// Propagates a failure to create the directory or the segment — a
    /// service configured with an unusable cache dir should fail loudly at
    /// startup, not silently run cold forever.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        Self::open_with_limit(dir, None)
    }

    /// [`DiskStore::open`] with a size cap: the writer rolls to a new
    /// segment at a quarter of `max_bytes`, and while the store exceeds
    /// `max_bytes` its oldest segments are deleted down to a 90%
    /// watermark. The cap is approximate (segments are measured, directory
    /// overhead is not) and best-effort, like every other store operation.
    ///
    /// # Errors
    /// As [`DiskStore::open`].
    pub fn open_with_limit(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(&dir)?
            .flatten()
            .filter_map(|entry| Some((segment_seq(entry.file_name().to_str()?)?, entry.path())))
            .collect();
        segments.sort();
        let counters = Counters::default();
        let mut index = Index::default();
        for (_, path) in &segments {
            // A segment that vanished or cannot be read holds nothing to serve.
            let Ok(file) = File::open(path) else {
                continue;
            };
            let file = Arc::new(file);
            let (bytes, records) = index.scan(&file, &counters);
            index.sealed.push_back(Segment {
                path: path.clone(),
                file,
                bytes,
                records,
            });
        }
        let writer = Writer::create(&dir, segments.last().map_or(0, |(seq, _)| seq + 1))?;
        let store = DiskStore {
            dir,
            counters,
            max_bytes,
            bytes: AtomicU64::new(index.sealed.iter().map(|s| s.bytes).sum()),
            writer: Mutex::new(writer),
            index: RwLock::new(index),
        };
        store.evict_if_over();
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct keys this store can serve.
    pub fn entry_count(&self) -> usize {
        self.index.read().expect("index lock poisoned").slots.len()
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

    /// Seals the writer's segment and starts the next one. If the next
    /// one cannot be created, appends go on where they were.
    fn roll(&self, writer: &mut Writer) {
        let Ok(next) = Writer::create(&self.dir, writer.seq + 1) else {
            return;
        };
        let sealed = std::mem::replace(writer, next).segment;
        self.index
            .write()
            .expect("index lock poisoned")
            .sealed
            .push_back(sealed);
    }

    /// While the store exceeds its cap, deletes its oldest sealed segment,
    /// down to 90% of the cap, and forgets the records in it. Runs at open
    /// or under the writer lock, so sweeps never overlap.
    fn evict_if_over(&self) {
        let Some(max) = self.max_bytes else {
            return;
        };
        if self.bytes.load(Ordering::Relaxed) <= max {
            return;
        }
        let watermark = max.saturating_mul(9) / 10;
        let mut index = self.index.write().expect("index lock poisoned");
        while self.bytes.load(Ordering::Relaxed) > watermark {
            let Some(oldest) = index.sealed.pop_front() else {
                break;
            };
            index
                .slots
                .retain(|_, slot| !Arc::ptr_eq(&slot.segment, &oldest.file));
            self.bytes.fetch_sub(oldest.bytes, Ordering::Relaxed);
            if fs::remove_file(&oldest.path).is_ok() {
                self.counters
                    .evicted
                    .fetch_add(oldest.records, Ordering::Relaxed);
                self.counters
                    .evicted_bytes
                    .fetch_add(oldest.bytes, Ordering::Relaxed);
                metrics::counter("serve.disk.evicted", oldest.records);
            }
        }
    }
}

impl CachePersist for DiskStore {
    fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        self.counters.loads.fetch_add(1, Ordering::Relaxed);
        let slot = self
            .index
            .read()
            .expect("index lock poisoned")
            .slots
            .get(key)
            .cloned()?;
        // The length came from this store's own append or scan, which
        // bounded it by the segment's size.
        let mut record = vec![0u8; usize::try_from(slot.len).ok()?];
        let value = slot
            .segment
            .read_exact_at(&mut record, slot.offset)
            .ok()
            .and_then(|()| decode_record(key, record));
        match value {
            Some(value) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter("serve.disk.hit", 1);
                Some(value)
            }
            None => {
                // Corruption under a live index: a miss, never an error.
                self.counters.invalid();
                None
            }
        }
    }

    fn store(&self, key: &CacheKey, value: &CachedResult) {
        let module = value.module_text.as_bytes();
        let header = Header::of(key, value.transforms_executed as u64, module);
        let mut record = Vec::with_capacity(HEADER_LEN + module.len());
        record.extend_from_slice(&header.encode());
        record.extend_from_slice(module);
        let len = record.len() as u64;

        let mut writer = self.writer.lock().expect("writer lock poisoned");
        if let Some(max) = self.max_bytes {
            let tail = writer.segment.bytes;
            if tail > 0 && tail + len > max / 4 {
                self.roll(&mut writer);
            }
        }
        let segment = &mut writer.segment;
        if segment.file.write_all_at(&record, segment.bytes).is_err() {
            self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.disk.store_error", 1);
            return;
        }
        let slot = Slot {
            segment: Arc::clone(&segment.file),
            offset: segment.bytes,
            len,
        };
        segment.bytes += len;
        segment.records += 1;
        self.index
            .write()
            .expect("index lock poisoned")
            .slots
            .insert(*key, slot);
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        metrics::counter("serve.disk.store", 1);
        self.bytes.fetch_add(len, Ordering::Relaxed);
        self.evict_if_over();
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // A store that appended nothing leaves no file behind.
        if let Ok(writer) = self.writer.get_mut() {
            if writer.segment.bytes == 0 {
                let _ = fs::remove_file(&writer.segment.path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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

    /// Every file name in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The names of this format's segments in `dir`, oldest first.
    fn segments(dir: &Path) -> Vec<String> {
        files(dir)
            .into_iter()
            .filter(|name| segment_seq(name).is_some())
            .collect()
    }

    /// Overwrites the byte at `at` in `path` with its complement.
    fn flip(path: &Path, at: u64) {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[!byte[0]], at).unwrap();
    }

    #[test]
    fn store_then_load_round_trips_across_instances_in_one_file() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.load(&key(1)), None);
        for n in 1..=20 {
            store.store(&key(n), &value(&format!("module {n} {{\n}}\n")));
        }
        assert_eq!(store.load(&key(1)), Some(value("module 1 {\n}\n")));
        assert_eq!(files(&dir).len(), 1, "one segment however many stores");
        // A fresh instance over the same dir — the restart case.
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(20)), Some(value("module 20 {\n}\n")));
        assert_eq!(reopened.entry_count(), 20);
        assert_eq!(reopened.counter_values().invalid, 0);
        drop(reopened);
        assert_eq!(
            files(&dir).len(),
            1,
            "a store that appended nothing leaves no file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_final_record_is_a_miss_at_every_cut() {
        let dir = temp_dir("torn");
        let store = DiskStore::open(&dir).unwrap();
        for n in 0..3 {
            store.store(&key(n), &value(&format!("module {n}")));
        }
        let name = segments(&dir).pop().unwrap();
        drop(store);
        let whole = fs::read(dir.join(&name)).unwrap();
        let last = whole.len() - (HEADER_LEN + "module 2".len());
        for cut in last..whole.len() {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(&name), &whole[..cut]).unwrap();
            let store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.load(&key(0)), Some(value("module 0")), "cut {cut}");
            assert_eq!(store.load(&key(1)), Some(value("module 1")), "cut {cut}");
            assert_eq!(store.load(&key(2)), None, "cut {cut}");
            let torn = u64::from(cut > last);
            assert_eq!(store.counter_values().invalid, torn, "cut {cut}");
            store.store(&key(3), &value("module 3"));
            assert_eq!(
                segments(&dir).len(),
                2,
                "cut {cut}: the next store opens a segment"
            );
            assert_eq!(
                fs::read(dir.join(&name)).unwrap(),
                &whole[..cut],
                "cut {cut}"
            );
            assert_eq!(
                DiskStore::open(&dir).unwrap().load(&key(3)),
                Some(value("module 3"))
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_in_module_or_header_is_a_miss() {
        // Header offsets: 32 is the transform count, 40 the module length,
        // 8 the script hash; `HEADER_LEN + 3` is inside the module.
        for at in [8, 32, 40, HEADER_LEN as u64 + 3] {
            let dir = temp_dir(&format!("flip-{at}"));
            let store = DiskStore::open(&dir).unwrap();
            store.store(&key(0), &value("module a"));
            store.store(&key(1), &value("module b"));
            let path = dir.join(segments(&dir).pop().unwrap());
            let second = (HEADER_LEN + "module a".len()) as u64;
            flip(&path, second + at);
            // Under the live index the load re-checks the record.
            assert_eq!(store.load(&key(1)), None, "live, byte {at}");
            assert_eq!(store.counter_values().invalid, 1, "live, byte {at}");
            assert_eq!(
                store.load(&key(0)),
                Some(value("module a")),
                "live, byte {at}"
            );
            // A restart's scan ends the segment at the corrupt record.
            let reopened = DiskStore::open(&dir).unwrap();
            assert_eq!(reopened.load(&key(1)), None, "reopened, byte {at}");
            assert_eq!(reopened.load(&key(0)), Some(value("module a")));
            assert_eq!(reopened.counter_values().invalid, 1, "reopened, byte {at}");
            assert_eq!(reopened.counter_values().hits, 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn segments_of_another_magic_or_version_serve_nothing() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        let module = b"module x";
        let header = Header::of(&key(7), 3, module).encode();
        let mut record = header.to_vec();
        record.extend_from_slice(module);
        let mut bad_magic = record.clone();
        bad_magic[0] = b'X';
        let mut bad_version = record.clone();
        bad_version[4..8].copy_from_slice(&2u32.to_le_bytes());
        fs::write(dir.join(segment_name(0, 1)), &bad_magic).unwrap();
        fs::write(dir.join(segment_name(1, 1)), &bad_version).unwrap();
        // A whole, current record under another version's segment name.
        fs::write(dir.join("seg-0000000000000002-1.v2"), &record).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.load(&key(7)), None);
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.counter_values().invalid, 2, "two segments scanned");
        assert_eq!(files(&dir).len(), 4, "nothing deleted, one segment added");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_entry_files_and_tmp_files_are_never_served_or_deleted() {
        let dir = temp_dir("leftovers");
        fs::create_dir_all(&dir).unwrap();
        let entry_file = |n: u64, version: u32| {
            let k = key(n);
            format!(
                "{:016x}{:016x}{:016x}.v{version}",
                k.script_fp, k.payload_fp, k.entry_fp
            )
        };
        for n in 0..4 {
            let body = format!("tdserve-cache {n}\ntransforms 3\nmodule 5\nstale");
            fs::write(dir.join(entry_file(n, 1)), &body).unwrap();
            fs::write(dir.join(entry_file(n, 2)), &body).unwrap();
            fs::write(dir.join(format!("{n:016x}.123.{n}.tmp")), b"half-written").unwrap();
        }
        let before = files(&dir);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.entry_count(), 0, "per-entry files are not entries");
        for n in 0..4 {
            assert_eq!(store.load(&key(n)), None, "leftover {n} must not be served");
        }
        store.store(&key(2), &value("ok"));
        assert_eq!(store.load(&key(2)), Some(value("ok")));
        let c = store.counter_values();
        assert_eq!((c.hits, c.invalid), (1, 0));
        drop(store);
        let after = files(&dir);
        assert!(
            before.iter().all(|name| after.contains(name)),
            "nothing deleted"
        );
        assert_eq!(after.len(), before.len() + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_stores_in_turn_merge_and_the_newest_record_wins() {
        let dir = temp_dir("merge");
        let first = DiskStore::open(&dir).unwrap();
        first.store(&key(1), &value("first only"));
        first.store(&key(9), &value("old"));
        let second = DiskStore::open(&dir).unwrap();
        assert_eq!(second.load(&key(1)), Some(value("first only")));
        second.store(&key(2), &value("second only"));
        second.store(&key(9), &value("new"));
        // A live store does not see what another appends after its open.
        assert_eq!(first.load(&key(2)), None);
        assert_eq!(first.load(&key(9)), Some(value("old")));
        assert_eq!(segments(&dir).len(), 2);
        let third = DiskStore::open(&dir).unwrap();
        assert_eq!(third.load(&key(1)), Some(value("first only")));
        assert_eq!(third.load(&key(2)), Some(value("second only")));
        assert_eq!(third.load(&key(9)), Some(value("new")));
        assert_eq!(third.entry_count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn four_threads_storing_one_key_leave_one_whole_value() {
        let dir = temp_dir("race");
        let store = DiskStore::open(&dir).unwrap();
        let values: Vec<CachedResult> = (0..4u8)
            .map(|t| {
                value(
                    &char::from(b'a' + t)
                        .to_string()
                        .repeat(4096 + usize::from(t)),
                )
            })
            .collect();
        let rounds = 50;
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for v in &values {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        barrier.wait();
                        store.store(&key(5), v);
                    }
                });
            }
        });
        assert!(values.contains(&store.load(&key(5)).unwrap()));
        let reopened = DiskStore::open(&dir).unwrap();
        assert!(values.contains(&reopened.load(&key(5)).unwrap()));
        let c = reopened.counter_values();
        assert_eq!(c.invalid, 0, "every appended record is whole");
        let records: u64 = reopened
            .index
            .read()
            .unwrap()
            .sealed
            .iter()
            .map(|s| s.records)
            .sum();
        assert_eq!(records, 4 * rounds);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_oldest_entries_first() {
        let dir = temp_dir("evict");
        let big = "x".repeat(512);
        // Cap at ~3 records' worth: segments roll at 450 bytes, so each
        // 568-byte record gets its own segment and the oldest ones go.
        let store = DiskStore::open_with_limit(&dir, Some(1800)).unwrap();
        for n in 0..8u64 {
            store.store(&key(n), &value(&big));
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
        let on_disk: u64 = segments(&dir)
            .iter()
            .map(|name| fs::metadata(dir.join(name)).unwrap().len())
            .sum();
        assert_eq!(on_disk, counters.bytes, "the gauge measures the segments");
        drop(store);
        // Reopening under the same cap re-measures and stays under it.
        let reopened = DiskStore::open_with_limit(&dir, Some(1800)).unwrap();
        assert!(reopened.counter_values().bytes <= 1800);
        assert_eq!(reopened.load(&key(7)), Some(value(&big)));
        assert_eq!(reopened.load(&key(0)), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
