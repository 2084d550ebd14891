//! The content-addressed on-disk result store: the persistence layer
//! behind the engine's in-memory cache ([`td_sched::CachePersist`]).
//!
//! This is the cache-as-tuning-database promoted to a service asset: an
//! outcome computed for any tenant, in any past daemon process — a result,
//! or the deterministic failure the engine caches beside results — is
//! served to every future request with identical inputs.
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
//!   magic, [`FORMAT_VERSION`], the three key hashes, the outcome kind,
//!   the transform count, the text length and a checksum over all of these
//!   and the text — followed by the text: the printed module of a success,
//!   or the message (the entry name, for a missing entry) of a failure.
//!   The outcome kind says which: a success, a definite or silenceable
//!   transform failure, a payload or script parse error, or a missing
//!   entry. The checksum folds one little-endian 64-bit word per step
//!   (FNV-1a's xor and multiply, on words), so checking a record costs an
//!   eighth of a byte-at-a-time pass. A load that finds a wrong magic,
//!   version, kind, key, length or checksum is a miss counted as
//!   `invalid`, never an error; the scan at open counts a torn or corrupt
//!   record the same way and ends that segment there. Segment names carry
//!   the version too, so bumping [`FORMAT_VERSION`] invalidates the whole
//!   store without deleting anything: the `.v3` segments of the previous
//!   log format, the per-entry `.v1`/`.v2` files of earlier formats and
//!   any `*.tmp` file are foreign, never read and never deleted.
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
use td_sched::{CacheKey, CachePersist, CachedFailure, CachedOutcome, CachedResult, JobError};
use td_support::metrics;

/// Record-format version; bump to invalidate all existing entries. Version
/// 1 entries were files named by structural fingerprints, version 2
/// entries one file per request-byte key, version 3 segments held
/// successes only under a byte-at-a-time checksum; none is read.
pub const FORMAT_VERSION: u32 = 4;

/// First bytes of every record.
const MAGIC: [u8; 4] = *b"tdrc";

/// Bytes in a record header: magic, version, the three key hashes, the
/// outcome kind, the transform count, the text length and the checksum.
const HEADER_LEN: usize = 64;

/// Where a header's checksum starts; it covers every byte before it.
const CHECKSUM_AT: usize = 56;

/// What a record holds: its header's outcome kind.
const KIND_SUCCESS: u64 = 0;
const KIND_DEFINITE: u64 = 1;
const KIND_SILENCEABLE: u64 = 2;
const KIND_PARSE_PAYLOAD: u64 = 3;
const KIND_PARSE_SCRIPT: u64 = 4;
const KIND_ENTRY_MISSING: u64 = 5;

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

/// A point-in-time snapshot of a store's counters (the source of
/// [`DiskStore::stats_json`], `STATS`' `disk` object).
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

/// The record checksum: FNV-1a's xor-and-multiply step applied to whole
/// little-endian 64-bit words instead of single bytes, the last partial
/// word zero-padded (the header carries the length, so padding is never
/// ambiguous). Each step is a bijection of the running value, so any one
/// corrupted word changes the result. Streaming: a partial word is carried
/// from one [`Checksum::update`] to the next, so any split of the same
/// bytes gives the same value.
#[derive(Clone, Copy, Debug)]
struct Checksum {
    hash: u64,
    carry: [u8; 8],
    carried: usize,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            hash: 0xcbf2_9ce4_8422_2325,
            carry: [0; 8],
            carried: 0,
        }
    }

    fn fold(&mut self, word: [u8; 8]) {
        self.hash = (self.hash ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.fold(self.carry);
            self.carried = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(word.try_into().expect("8-byte chunk"));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.carried > 0 {
            self.carry[self.carried..].fill(0);
            self.fold(self.carry);
        }
        self.hash
    }
}

/// A record's fixed-size header.
#[derive(Clone, Copy, Debug)]
struct Header {
    key: CacheKey,
    kind: u64,
    transforms: u64,
    text_len: u64,
    checksum: u64,
}

impl Header {
    /// The header of a record of `kind` holding `text` under `key`,
    /// checksum included.
    fn of(key: &CacheKey, kind: u64, transforms: u64, text: &[u8]) -> Header {
        let mut header = Header {
            key: *key,
            kind,
            transforms,
            text_len: text.len() as u64,
            checksum: 0,
        };
        let mut sum = header.fields_checksum();
        sum.update(text);
        header.checksum = sum.finish();
        header
    }

    /// Little-endian: magic, version, then seven `u64`s (script, payload
    /// and entry hashes, outcome kind, transforms, text length, checksum).
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        let words = [
            self.key.script_fp,
            self.key.payload_fp,
            self.key.entry_fp,
            self.kind,
            self.transforms,
            self.text_len,
            self.checksum,
        ];
        for (slot, word) in out[8..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses a header; `None` unless it has this format's magic and
    /// version and a known outcome kind.
    fn decode(bytes: &[u8; HEADER_LEN]) -> Option<Header> {
        if bytes[..4] != MAGIC || bytes[4..8] != FORMAT_VERSION.to_le_bytes() {
            return None;
        }
        let word = |i: usize| {
            let at = 8 + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
        };
        let kind = word(3);
        (kind <= KIND_ENTRY_MISSING).then(|| Header {
            key: CacheKey {
                script_fp: word(0),
                payload_fp: word(1),
                entry_fp: word(2),
            },
            kind,
            transforms: word(4),
            text_len: word(5),
            checksum: word(6),
        })
    }

    /// The checksum so far: every header byte before the checksum.
    /// Folding the text into it gives the checksum.
    fn fields_checksum(&self) -> Checksum {
        let mut sum = Checksum::new();
        sum.update(&self.encode()[..CHECKSUM_AT]);
        sum
    }
}

/// The record of `outcome`: its kind, transform count and text.
fn record_of(outcome: &CachedOutcome) -> (u64, u64, &str) {
    match outcome {
        Ok(value) => (
            KIND_SUCCESS,
            value.transforms_executed as u64,
            &value.module_text,
        ),
        Err(failure) => match failure.error() {
            JobError::Transform {
                message,
                silenceable,
            } => (
                if *silenceable {
                    KIND_SILENCEABLE
                } else {
                    KIND_DEFINITE
                },
                0,
                message,
            ),
            JobError::Parse { what, message } => (
                if *what == "payload" {
                    KIND_PARSE_PAYLOAD
                } else {
                    KIND_PARSE_SCRIPT
                },
                0,
                message,
            ),
            JobError::EntryMissing { name } => (KIND_ENTRY_MISSING, 0, name),
            // `CachedFailure` holds no other error.
            other => unreachable!("uncacheable failure {other:?}"),
        },
    }
}

/// The outcome a record of `kind` with `text` holds.
fn outcome_of(kind: u64, transforms: u64, text: String) -> Option<CachedOutcome> {
    let error = match kind {
        KIND_SUCCESS => {
            return Some(Ok(CachedResult {
                module_text: text,
                transforms_executed: usize::try_from(transforms).ok()?,
            }))
        }
        KIND_DEFINITE | KIND_SILENCEABLE => JobError::Transform {
            message: text,
            silenceable: kind == KIND_SILENCEABLE,
        },
        KIND_PARSE_PAYLOAD | KIND_PARSE_SCRIPT => JobError::Parse {
            what: if kind == KIND_PARSE_PAYLOAD {
                "payload"
            } else {
                "script"
            },
            message: text,
        },
        KIND_ENTRY_MISSING => JobError::EntryMissing { name: text },
        _ => return None,
    };
    CachedFailure::of(&error).map(Err)
}

/// The outcome in `record` if it is whole, of this format and stored under
/// `key`.
fn decode_record(key: &CacheKey, mut record: Vec<u8>) -> Option<CachedOutcome> {
    let header = Header::decode(record.get(..HEADER_LEN)?.try_into().ok()?)?;
    let text = &record[HEADER_LEN..];
    let mut sum = header.fields_checksum();
    sum.update(text);
    if header.key != *key || header.text_len != text.len() as u64 || sum.finish() != header.checksum
    {
        return None;
    }
    record.drain(..HEADER_LEN);
    outcome_of(
        header.kind,
        header.transforms,
        String::from_utf8(record).ok()?,
    )
}

/// Reads and checks the record at `reader`'s position, which may take at
/// most `room` bytes: its key and length, or `None` if it is torn,
/// corrupt or foreign.
fn read_record(reader: &mut impl BufRead, room: u64) -> Option<(CacheKey, u64)> {
    let mut bytes = [0u8; HEADER_LEN];
    reader.read_exact(&mut bytes).ok()?;
    let header = Header::decode(&bytes)?;
    let len = header.text_len.checked_add(HEADER_LEN as u64)?;
    if len > room {
        return None;
    }
    let mut sum = header.fields_checksum();
    let mut left = header.text_len;
    while left > 0 {
        let chunk = reader.fill_buf().ok()?;
        if chunk.is_empty() {
            return None;
        }
        let n = chunk.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        sum.update(&chunk[..n]);
        reader.consume(n);
        left -= n as u64;
    }
    (sum.finish() == header.checksum).then_some((header.key, len))
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

/// A content-addressed on-disk store of job outcomes ([`CachedOutcome`]).
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

    /// Appends one record of `kind` holding `text` under `key` and
    /// publishes it in the index.
    fn append(&self, key: &CacheKey, kind: u64, transforms: u64, text: &str) {
        let text = text.as_bytes();
        let header = Header::of(key, kind, transforms, text);
        let mut record = Vec::with_capacity(HEADER_LEN + text.len());
        record.extend_from_slice(&header.encode());
        record.extend_from_slice(text);
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

impl CachePersist for DiskStore {
    /// The success stored under `key`; a failure record answers `None`.
    fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        self.load_outcome(key)?.ok()
    }

    fn store(&self, key: &CacheKey, value: &CachedResult) {
        let transforms = value.transforms_executed as u64;
        self.append(key, KIND_SUCCESS, transforms, &value.module_text);
    }

    fn load_outcome(&self, key: &CacheKey) -> Option<CachedOutcome> {
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

    fn store_outcome(&self, key: &CacheKey, outcome: &CachedOutcome) {
        let (kind, transforms, text) = record_of(outcome);
        self.append(key, kind, transforms, text);
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
            entry_fp: td_sched::cache::fnv1a(b"main"),
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
        // Header offsets: 8 is the script hash, 32 the outcome kind, 40 the
        // transform count, 48 the text length; `HEADER_LEN + 3` is inside
        // the module.
        for at in [8, 32, 40, 48, HEADER_LEN as u64 + 3] {
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
        let header = Header::of(&key(7), KIND_SUCCESS, 3, module).encode();
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

    /// One failure of every cacheable kind.
    fn failures() -> Vec<CachedOutcome> {
        [
            JobError::Transform {
                message: "no loop to tile".into(),
                silenceable: true,
            },
            JobError::Transform {
                message: "payload corrupted".into(),
                silenceable: false,
            },
            JobError::Parse {
                what: "payload",
                message: "bad token".into(),
            },
            JobError::Parse {
                what: "script",
                message: "".into(),
            },
            JobError::EntryMissing {
                name: "entry".into(),
            },
        ]
        .iter()
        .map(|error| Err(CachedFailure::of(error).expect("cacheable")))
        .collect()
    }

    #[test]
    fn failure_records_round_trip_beside_successes() {
        let dir = temp_dir("failures");
        let store = DiskStore::open(&dir).unwrap();
        let outcomes: Vec<CachedOutcome> = failures()
            .into_iter()
            .chain([Ok(value("module ok"))])
            .collect();
        for (n, outcome) in outcomes.iter().enumerate() {
            store.store_outcome(&key(n as u64), outcome);
        }
        for (n, outcome) in outcomes.iter().enumerate() {
            let k = key(n as u64);
            assert_eq!(store.load_outcome(&k).as_ref(), Some(outcome), "{n}");
            // The success-only surface answers for successes only.
            assert_eq!(store.load(&k), outcome.clone().ok(), "{n}");
        }
        let reopened = DiskStore::open(&dir).unwrap();
        for (n, outcome) in outcomes.iter().enumerate() {
            let k = key(n as u64);
            assert_eq!(reopened.load_outcome(&k).as_ref(), Some(outcome), "{n}");
        }
        assert_eq!(reopened.counter_values().invalid, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_failure_record_is_a_miss_at_every_cut() {
        let dir = temp_dir("torn-failure");
        let store = DiskStore::open(&dir).unwrap();
        let failure = failures().remove(1);
        store.store(&key(0), &value("module 0"));
        store.store_outcome(&key(1), &failure);
        let name = segments(&dir).pop().unwrap();
        drop(store);
        let whole = fs::read(dir.join(&name)).unwrap();
        let last = HEADER_LEN + "module 0".len();
        assert_eq!(whole.len(), last + HEADER_LEN + "payload corrupted".len());
        for cut in last..whole.len() {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(&name), &whole[..cut]).unwrap();
            let store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.load(&key(0)), Some(value("module 0")), "cut {cut}");
            assert_eq!(store.load_outcome(&key(1)), None, "cut {cut}");
            assert_eq!(store.counter_values().invalid, u64::from(cut > last));
        }
        fs::write(dir.join(&name), &whole).unwrap();
        assert_eq!(
            DiskStore::open(&dir).unwrap().load_outcome(&key(1)),
            Some(failure)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A whole segment of the previous log format: 56-byte headers and a
    /// byte-at-a-time FNV-1a checksum.
    fn v3_segment(records: &[(CacheKey, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, module) in records {
            let mut header = Vec::with_capacity(56);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&3u32.to_le_bytes());
            for word in [
                k.script_fp,
                k.payload_fp,
                k.entry_fp,
                3,
                module.len() as u64,
            ] {
                header.extend_from_slice(&word.to_le_bytes());
            }
            let sum =
                td_sched::cache::fnv1a_fold(td_sched::cache::fnv1a(&header), module.as_bytes());
            out.extend_from_slice(&header);
            out.extend_from_slice(&sum.to_le_bytes());
            out.extend_from_slice(module.as_bytes());
        }
        out
    }

    #[test]
    fn a_leftover_v3_segment_is_never_read_or_deleted() {
        let dir = temp_dir("v3");
        fs::create_dir_all(&dir).unwrap();
        let old = "seg-0000000000000000-1.v3";
        fs::write(
            dir.join(old),
            v3_segment(&[(key(1), "module a"), (key(2), "module b")]),
        )
        .unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.load_outcome(&key(1)), None);
        let c = store.counter_values();
        assert_eq!(
            (c.invalid, c.bytes),
            (0, 0),
            "the segment was never scanned"
        );
        store.store(&key(1), &value("module a, again"));
        drop(store);
        assert_eq!(segments(&dir), [segment_name(0, std::process::id())]);
        assert!(dir.join(old).exists(), "nothing deleted");
        assert_eq!(
            DiskStore::open(&dir).unwrap().load(&key(1)),
            Some(value("module a, again"))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_checksum_is_the_same_at_every_split_and_sees_every_byte() {
        let bytes: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37)).collect();
        let whole = {
            let mut sum = Checksum::new();
            sum.update(&bytes);
            sum.finish()
        };
        for a in 0..=bytes.len() {
            for b in a..=bytes.len() {
                let mut sum = Checksum::new();
                sum.update(&bytes[..a]);
                sum.update(&bytes[a..b]);
                sum.update(&bytes[b..]);
                assert_eq!(sum.finish(), whole, "split at {a}, {b}");
            }
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x80;
            let mut sum = Checksum::new();
            sum.update(&flipped);
            assert_ne!(sum.finish(), whole, "byte {at}");
        }
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
