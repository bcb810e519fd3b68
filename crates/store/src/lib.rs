//! Disk-backed, content-addressed evaluation result store.
//!
//! The in-memory memo cache inside `eco-exec::Engine` dies with the
//! process; this crate persists measured [`Counters`] so `repro` and
//! `eco tune` runs warm-start across processes and a killed sweep
//! resumes for free. The store is keyed by the same FNV fingerprints
//! the engine already computes (`program_fingerprint` + the
//! machine/layout/params point hash), carried here as a [`StoreKey`]
//! so this crate needs no dependency on the executor.
//!
//! On-disk layout under the store root:
//!
//! * `records/<16-hex program fp><16-hex point fp>.json` — one
//!   versioned record per evaluated point, rendered through the
//!   deterministic [`Json`] builder and written atomically
//!   (temp file + rename), so concurrent writers and crashes never
//!   leave a torn record. Only successful measurements are stored;
//!   errors are cheap to re-derive and would otherwise need their own
//!   versioned encoding.
//! * `index.json` — LRU/age metadata per record (`bytes`, logical
//!   `created` / `last_used` stamps). The index is advisory: if it is
//!   missing or corrupt it is rebuilt by scanning `records/`, and
//!   stamps are *logical* access counters rather than wall-clock times
//!   so store behaviour (in particular [`ResultStore::gc`] eviction
//!   order) is deterministic under test.
//! * `shards/<16-hex shard fp>.json` — completion records for sweep
//!   shards ([`ResultStore::mark_shard_complete`]), written by the
//!   worker that finished the shard so a killed orchestrator can never
//!   lose finished work. Shard records live *outside* the LRU index:
//!   [`ResultStore::gc`] trims point records only, so a tight byte
//!   budget cannot erase the evidence a resumed sweep skips by.
//!
//! A record that fails to parse, carries an unknown
//! `record_version`, or echoes the wrong key is treated as a miss and
//! counted in [`StoreStats::rejected`] — a corrupt file can cost a
//! re-simulation but never a wrong result.

use eco_cachesim::{Counters, TagCounters};
use eco_events::Json;
use eco_metrics::{Counter, Registry};
use eco_sched::sync::atomic::{AtomicU64, Ordering};
use eco_sched::sync::{labeled_mutex, Arc, Mutex};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp written into every record; readers reject records
/// from other versions (forward and backward) instead of guessing.
pub const RECORD_VERSION: u64 = 1;

/// Version stamp for `index.json`.
pub const INDEX_VERSION: u64 = 1;

/// Version stamp written into every shard-completion record; readers
/// reject records from other versions instead of guessing.
pub const SHARD_RECORD_VERSION: u64 = 1;

/// The content address of one evaluated point: the engine's program
/// fingerprint plus its machine/layout/params point hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// FNV-1a fingerprint of the program (name + pretty-printed text).
    pub program_fp: u64,
    /// FNV-1a hash of machine fingerprint, layout, parameter bindings
    /// and attribution flag.
    pub point_fp: u64,
}

impl StoreKey {
    /// Builds a key from its two fingerprint halves.
    pub fn new(program_fp: u64, point_fp: u64) -> StoreKey {
        StoreKey {
            program_fp,
            point_fp,
        }
    }

    /// The 32-hex-digit record file stem for this key.
    fn stem(&self) -> String {
        format!("{:016x}{:016x}", self.program_fp, self.point_fp)
    }
}

/// A store-level failure (I/O on open, write, or gc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The path involved.
    pub path: String,
    /// The underlying error.
    pub msg: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error at {}: {}", self.path, self.msg)
    }
}

impl Error for StoreError {}

fn store_err(path: &Path, err: impl fmt::Display) -> StoreError {
    StoreError {
        path: path.display().to_string(),
        msg: err.to_string(),
    }
}

/// Session counters for one open store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) record.
    pub misses: u64,
    /// Records written this session.
    pub puts: u64,
    /// Records rejected as corrupt / wrong version / wrong key echo.
    pub rejected: u64,
}

/// What [`ResultStore::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Records evicted.
    pub evicted: u64,
    /// Bytes of record data remaining after the sweep.
    pub remaining_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    bytes: u64,
    created: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    index: BTreeMap<StoreKey, IndexEntry>,
    /// Logical access clock; bumped on every get/put.
    clock: u64,
    stats: StoreStats,
}

/// Process-wide metric handles, resolved once per store handle.
/// Operational telemetry only: never recorded in manifests or golden
/// results, and unlike [`StoreStats`] the totals aggregate across
/// every open handle in the process.
#[derive(Debug)]
struct StoreMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    puts: Arc<Counter>,
    rejected: Arc<Counter>,
    gc_evicted: Arc<Counter>,
    bytes_written: Arc<Counter>,
}

impl StoreMetrics {
    fn resolve() -> StoreMetrics {
        let r = Registry::global();
        let c = |name: &str, help: &str| r.counter(name, help, &[]);
        StoreMetrics {
            hits: c("eco_store_hits_total", "Lookups served from disk."),
            misses: c(
                "eco_store_misses_total",
                "Lookups that found no valid record.",
            ),
            puts: c("eco_store_puts_total", "Records written."),
            rejected: c(
                "eco_store_rejected_total",
                "Records rejected as corrupt, wrong version, or wrong key.",
            ),
            gc_evicted: c("eco_store_gc_evicted_total", "Records evicted by gc."),
            bytes_written: c("eco_store_bytes_written_total", "Record bytes written."),
        }
    }
}

/// A disk-backed result store rooted at one directory.
///
/// All operations take `&self`; an interior mutex serialises index
/// updates. Concurrent *processes* sharing a root are safe too:
/// records are content-addressed (two writers of the same key write
/// identical bytes) and every file lands via an atomic rename.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created or scanned.
    pub fn open(root: impl AsRef<Path>) -> Result<ResultStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        let records = root.join("records");
        fs::create_dir_all(&records).map_err(|e| store_err(&records, e))?;
        let mut inner = Inner::default();
        load_index(&root, &mut inner);
        reconcile_index(&records, &mut inner).map_err(|e| store_err(&records, e))?;
        Ok(ResultStore {
            root,
            inner: labeled_mutex("store.inner", inner),
            metrics: StoreMetrics::resolve(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn record_path(&self, key: &StoreKey) -> PathBuf {
        self.root
            .join("records")
            .join(format!("{}.json", key.stem()))
    }

    /// Looks up the counters recorded for `key`, bumping its LRU
    /// stamp. Corrupt, wrong-version, or wrong-key records count as
    /// misses (and as [`StoreStats::rejected`]).
    pub fn get(&self, key: StoreKey) -> Option<Counters> {
        let path = self.record_path(&key);
        // Read and parse before taking the lock: only the clock, stats
        // and index update run under it.
        let read = fs::read_to_string(&path)
            .ok()
            .map(|text| (text.len() as u64, parse_record(&text, key)));
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match read {
            None => {
                inner.stats.misses += 1;
                self.metrics.misses.inc();
                None
            }
            Some((_, None)) => {
                inner.stats.misses += 1;
                inner.stats.rejected += 1;
                self.metrics.misses.inc();
                self.metrics.rejected.inc();
                None
            }
            Some((bytes, Some(counters))) => {
                inner.stats.hits += 1;
                self.metrics.hits.inc();
                if let Some(entry) = inner.index.get_mut(&key) {
                    entry.last_used = clock;
                } else {
                    inner.index.insert(
                        key,
                        IndexEntry {
                            bytes,
                            created: clock,
                            last_used: clock,
                        },
                    );
                }
                Some(counters)
            }
        }
    }

    /// Writes the record for `key` atomically (temp file + rename) and
    /// updates the index.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; an existing record is overwritten
    /// (same key ⇒ same bytes, so this is idempotent).
    pub fn put(&self, key: StoreKey, program: &str, counters: &Counters) -> Result<(), StoreError> {
        let doc = render_record(key, program, counters);
        let bytes = doc.render();
        let path = self.record_path(&key);
        #[cfg(eco_sched)]
        if faults::INDEX_BEFORE_WRITE.load(std::sync::atomic::Ordering::Relaxed) {
            // BUG, reintroduced for the checker: publish the index entry
            // before the record bytes are durable. A concurrent reader can
            // observe an index hit with no data file behind it.
            self.publish_index(key, bytes.len() as u64);
            eco_sched::model::yield_point("store.put.index_before_data");
            write_atomic(&path, bytes.as_bytes())?;
            self.metrics.puts.inc();
            self.metrics.bytes_written.add(bytes.len() as u64);
            return self.flush();
        }
        write_atomic(&path, bytes.as_bytes())?;
        self.metrics.puts.inc();
        self.metrics.bytes_written.add(bytes.len() as u64);
        self.publish_index(key, bytes.len() as u64);
        self.flush()
    }

    /// Second half of [`put`](Self::put): bump the logical clock and publish
    /// the index entry, after the record bytes are durable on disk.
    fn publish_index(&self, key: StoreKey, record_bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        inner.stats.puts += 1;
        let entry = inner.index.entry(key).or_insert(IndexEntry {
            bytes: 0,
            created: clock,
            last_used: clock,
        });
        entry.bytes = record_bytes;
        entry.last_used = clock;
    }

    /// Number of records currently indexed.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of record data currently indexed.
    pub fn bytes(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.index.values().map(|e| e.bytes).sum()
    }

    /// This handle's session counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().unwrap().stats
    }

    /// Evicts the coldest records (lowest logical `last_used`, keys as
    /// tie-break) until total record bytes fit `budget_bytes`, then
    /// persists the index.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors while deleting records or writing the
    /// index.
    pub fn gc(&self, budget_bytes: u64) -> Result<GcStats, StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let mut total: u64 = inner.index.values().map(|e| e.bytes).sum();
        let mut order: Vec<(u64, StoreKey)> =
            inner.index.iter().map(|(k, e)| (e.last_used, *k)).collect();
        order.sort();
        let mut evicted = 0u64;
        for (_, key) in order {
            if total <= budget_bytes {
                break;
            }
            let path = self.record_path(&key);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(store_err(&path, e)),
            }
            if let Some(entry) = inner.index.remove(&key) {
                total -= entry.bytes;
            }
            evicted += 1;
        }
        drop(inner);
        self.metrics.gc_evicted.add(evicted);
        self.flush()?;
        Ok(GcStats {
            evicted,
            remaining_bytes: total,
        })
    }

    fn shard_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("shards")
            .join(format!("{fingerprint:016x}.json"))
    }

    /// Records that the sweep shard with `fingerprint` completed,
    /// embedding its gathered `result` document. Written atomically by
    /// the worker that executed the shard, so the record exists exactly
    /// when the shard's point records do — a resumed sweep that finds
    /// it can skip the shard without consulting anyone.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; re-marking a completed shard
    /// overwrites with identical bytes (same shard ⇒ same result).
    pub fn mark_shard_complete(&self, fingerprint: u64, result: &Json) -> Result<(), StoreError> {
        let path = self.shard_path(fingerprint);
        let dir = path.parent().expect("shard path has a parent");
        fs::create_dir_all(dir).map_err(|e| store_err(dir, e))?;
        let doc = Json::obj()
            .field("shard_version", Json::UInt(SHARD_RECORD_VERSION))
            .field("shard", Json::fingerprint(fingerprint))
            .field("result", result.clone());
        write_atomic(&path, doc.render().as_bytes())
    }

    /// The result document recorded for shard `fingerprint`, or `None`
    /// when the shard has not completed. Records that fail to parse,
    /// carry an unknown version, or echo the wrong fingerprint are
    /// treated as absent — a corrupt file costs a shard re-run, never a
    /// wrong sweep.
    pub fn shard_complete(&self, fingerprint: u64) -> Option<Json> {
        let text = fs::read_to_string(self.shard_path(fingerprint)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("shard_version").and_then(Json::as_u64) != Some(SHARD_RECORD_VERSION) {
            return None;
        }
        if fp_field(&doc, "shard") != Some(fingerprint) {
            return None;
        }
        doc.get("result").cloned()
    }

    /// Number of shard-completion records on disk (resume evidence).
    pub fn shards_complete(&self) -> usize {
        fs::read_dir(self.root.join("shards")).map_or(0, |dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
    }

    /// Persists `index.json` (atomically). Called by [`put`](Self::put)
    /// and [`gc`](Self::gc); LRU bumps from pure reads are flushed on
    /// drop.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn flush(&self) -> Result<(), StoreError> {
        let inner = self.inner.lock().unwrap();
        let mut entries = Json::obj();
        for (key, e) in &inner.index {
            entries = entries.field(
                &key.stem(),
                Json::obj()
                    .field("bytes", Json::UInt(e.bytes))
                    .field("created", Json::UInt(e.created))
                    .field("last_used", Json::UInt(e.last_used)),
            );
        }
        let doc = Json::obj()
            .field("index_version", Json::UInt(INDEX_VERSION))
            .field("clock", Json::UInt(inner.clock))
            .field("entries", entries);
        drop(inner);
        write_atomic(&self.root.join("index.json"), doc.render().as_bytes())
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Writes `bytes` to `path` via a sibling temp file + rename, so
/// readers only ever observe complete files.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    // Temp names must be unique per *call*, not just per process: two
    // threads of one process flushing the same path (serve workers,
    // the sweep orchestrator) would otherwise truncate each other's
    // half-written temp file and race the rename.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    #[allow(unused_mut)]
    let mut tmp = dir.join(format!(
        ".{stem}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    #[cfg(eco_sched)]
    if faults::TMP_NAME_COLLISION.load(std::sync::atomic::Ordering::Relaxed) {
        // BUG, reintroduced for the checker: the historical temp name had no
        // per-call sequence number, so two threads flushing the same path
        // truncate each other's half-written temp file and race the rename.
        tmp = dir.join(format!(".{stem}.{}.tmp", std::process::id()));
    }
    let mut f = fs::File::create(&tmp).map_err(|e| store_err(&tmp, e))?;
    #[cfg(eco_sched)]
    eco_sched::model::yield_point("store.write_atomic.tmp_created");
    f.write_all(bytes).map_err(|e| store_err(&tmp, e))?;
    f.sync_all().map_err(|e| store_err(&tmp, e))?;
    drop(f);
    #[cfg(eco_sched)]
    eco_sched::model::yield_point("store.write_atomic.pre_rename");
    fs::rename(&tmp, path).map_err(|e| store_err(path, e))
}

/// Fault hooks for the interleaving checker: each knob re-introduces one
/// historical (or representative) ordering bug so `eco-sched` regression
/// tests can prove the checker catches it. Compiled only under
/// `--cfg eco_sched`; the knobs default to off, so even checker builds
/// behave correctly unless a test opts in.
#[cfg(eco_sched)]
pub mod faults {
    use std::sync::atomic::AtomicBool;

    /// Drop the `TMP_SEQ` uniqueness from temp names (the PR 7 collision).
    pub static TMP_NAME_COLLISION: AtomicBool = AtomicBool::new(false);
    /// Publish the index entry before the record file is durable.
    pub static INDEX_BEFORE_WRITE: AtomicBool = AtomicBool::new(false);
}

fn load_index(root: &Path, inner: &mut Inner) {
    let Ok(text) = fs::read_to_string(root.join("index.json")) else {
        return;
    };
    let Ok(doc) = Json::parse(&text) else {
        return; // corrupt index: rebuilt from the records directory
    };
    if doc.get("index_version").and_then(Json::as_u64) != Some(INDEX_VERSION) {
        return;
    }
    inner.clock = doc.get("clock").and_then(Json::as_u64).unwrap_or(0);
    let Some(Json::Obj(entries)) = doc.get("entries") else {
        return;
    };
    for (stem, e) in entries {
        let Some(key) = key_from_stem(stem) else {
            continue;
        };
        let bytes = e.get("bytes").and_then(Json::as_u64).unwrap_or(0);
        let created = e.get("created").and_then(Json::as_u64).unwrap_or(0);
        let last_used = e.get("last_used").and_then(Json::as_u64).unwrap_or(0);
        inner.index.insert(
            key,
            IndexEntry {
                bytes,
                created,
                last_used,
            },
        );
    }
}

/// Drops index entries whose record file vanished and adopts record
/// files the index has never seen (e.g. written by another process or
/// after a lost index).
fn reconcile_index(records: &Path, inner: &mut Inner) -> std::io::Result<()> {
    let mut on_disk = BTreeMap::new();
    for entry in fs::read_dir(records)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let Some(key) = key_from_stem(stem) else {
            continue;
        };
        on_disk.insert(key, entry.metadata()?.len());
    }
    inner.index.retain(|k, _| on_disk.contains_key(k));
    for (key, bytes) in on_disk {
        inner.index.entry(key).or_insert(IndexEntry {
            bytes,
            created: 0,
            last_used: 0,
        });
    }
    Ok(())
}

fn key_from_stem(stem: &str) -> Option<StoreKey> {
    if stem.len() != 32 {
        return None;
    }
    let program_fp = u64::from_str_radix(&stem[..16], 16).ok()?;
    let point_fp = u64::from_str_radix(&stem[16..], 16).ok()?;
    Some(StoreKey {
        program_fp,
        point_fp,
    })
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

fn uints(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::UInt(v)).collect())
}

/// Renders [`Counters`] as a deterministic [`Json`] object (stable
/// field order; every field explicit).
pub fn counters_to_json(c: &Counters) -> Json {
    let mut per_tag = Vec::with_capacity(c.per_tag.len());
    for t in &c.per_tag {
        per_tag.push(
            Json::obj()
                .field("accesses", Json::UInt(t.accesses))
                .field("misses", uints(&t.misses))
                .field("tlb_misses", Json::UInt(t.tlb_misses)),
        );
    }
    Json::obj()
        .field("loads", Json::UInt(c.loads))
        .field("stores", Json::UInt(c.stores))
        .field("prefetches", Json::UInt(c.prefetches))
        .field("cache_misses", uints(&c.cache_misses))
        .field("prefetch_fills", uints(&c.prefetch_fills))
        .field("tlb_misses", Json::UInt(c.tlb_misses))
        .field("flops", Json::UInt(c.flops))
        .field("loop_iterations", Json::UInt(c.loop_iterations))
        .field("cycles_x1000", Json::UInt(c.cycles_x1000))
        .field("per_tag", Json::Arr(per_tag))
}

fn uints_from(doc: &Json) -> Option<Vec<u64>> {
    match doc {
        Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
        _ => None,
    }
}

/// Parses [`Counters`] back out of [`counters_to_json`]'s encoding.
/// Returns `None` on any missing or mistyped field.
pub fn counters_from_json(doc: &Json) -> Option<Counters> {
    let mut per_tag = Vec::new();
    let Some(Json::Arr(tags)) = doc.get("per_tag") else {
        return None;
    };
    for t in tags {
        per_tag.push(TagCounters {
            accesses: t.get("accesses").and_then(Json::as_u64)?,
            misses: uints_from(t.get("misses")?)?,
            tlb_misses: t.get("tlb_misses").and_then(Json::as_u64)?,
        });
    }
    Some(Counters {
        loads: doc.get("loads").and_then(Json::as_u64)?,
        stores: doc.get("stores").and_then(Json::as_u64)?,
        prefetches: doc.get("prefetches").and_then(Json::as_u64)?,
        cache_misses: uints_from(doc.get("cache_misses")?)?,
        prefetch_fills: uints_from(doc.get("prefetch_fills")?)?,
        tlb_misses: doc.get("tlb_misses").and_then(Json::as_u64)?,
        flops: doc.get("flops").and_then(Json::as_u64)?,
        loop_iterations: doc.get("loop_iterations").and_then(Json::as_u64)?,
        cycles_x1000: doc.get("cycles_x1000").and_then(Json::as_u64)?,
        per_tag,
    })
}

fn render_record(key: StoreKey, program: &str, counters: &Counters) -> Json {
    Json::obj()
        .field("record_version", Json::UInt(RECORD_VERSION))
        .field("program_fp", Json::fingerprint(key.program_fp))
        .field("point_fp", Json::fingerprint(key.point_fp))
        .field("program", Json::str(program))
        .field("counters", counters_to_json(counters))
}

fn fp_field(doc: &Json, key: &str) -> Option<u64> {
    let text = doc.get(key)?.as_str()?;
    u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()
}

fn parse_record(text: &str, key: StoreKey) -> Option<Counters> {
    let doc = Json::parse(text).ok()?;
    if doc.get("record_version").and_then(Json::as_u64) != Some(RECORD_VERSION) {
        return None;
    }
    if fp_field(&doc, "program_fp") != Some(key.program_fp)
        || fp_field(&doc, "point_fp") != Some(key.point_fp)
    {
        return None;
    }
    counters_from_json(doc.get("counters")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters(seed: u64) -> Counters {
        Counters {
            loads: 100 + seed,
            stores: 40 + seed,
            prefetches: 8,
            cache_misses: vec![17 + seed, 5],
            prefetch_fills: vec![3, 1],
            tlb_misses: 2,
            flops: 200 + seed,
            loop_iterations: 50,
            cycles_x1000: 123_456 + seed,
            per_tag: vec![TagCounters {
                accesses: 70,
                misses: vec![9, 2],
                tlb_misses: 1,
            }],
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eco-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counters_round_trip_through_json() {
        let c = sample_counters(7);
        let doc = counters_to_json(&c);
        // Byte-determinism: rendering twice is identical, and a parsed
        // re-render matches too.
        assert_eq!(doc.render(), counters_to_json(&c).render());
        let reparsed = Json::parse(&doc.render()).expect("parses");
        assert_eq!(counters_from_json(&reparsed), Some(c));
    }

    #[test]
    fn store_round_trips_records_across_handles() {
        let root = tmp_root("roundtrip");
        let key = StoreKey::new(0xdead_beef, 0x1234_5678_9abc_def0);
        let c = sample_counters(1);
        {
            let store = ResultStore::open(&root).expect("open");
            assert_eq!(store.get(key), None);
            store.put(key, "mm test", &c).expect("put");
            assert_eq!(store.get(key), Some(c.clone()));
            let stats = store.stats();
            assert_eq!((stats.hits, stats.misses, stats.puts), (1, 1, 1));
        }
        // A second handle (as in a second process) sees the record.
        let store = ResultStore::open(&root).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(key), Some(c));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_mismatched_records_are_rejected() {
        let root = tmp_root("corrupt");
        let store = ResultStore::open(&root).expect("open");
        let key = StoreKey::new(1, 2);
        let c = sample_counters(0);
        store.put(key, "k", &c).expect("put");

        // Truncated JSON → miss.
        let path = root.join("records").join(format!("{}.json", key.stem()));
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert_eq!(store.get(key), None);

        // Wrong record_version → miss.
        let bumped = text.replace("\"record_version\": 1", "\"record_version\": 999");
        assert_ne!(bumped, text);
        fs::write(&path, bumped).expect("rewrite");
        assert_eq!(store.get(key), None);

        // A record echoing a different key (e.g. a misnamed file) → miss.
        let other = StoreKey::new(9, 9);
        store.put(other, "k", &c).expect("put other");
        let other_path = root.join("records").join(format!("{}.json", other.stem()));
        fs::copy(&other_path, &path).expect("cross-copy");
        assert_eq!(store.get(key), None);

        assert_eq!(store.stats().rejected, 3);
        // Intact record still readable.
        assert_eq!(store.get(other), Some(c));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_evicts_coldest_until_under_budget() {
        let root = tmp_root("gc");
        let store = ResultStore::open(&root).expect("open");
        let keys: Vec<StoreKey> = (0..4).map(|i| StoreKey::new(10, i)).collect();
        for &k in &keys {
            store
                .put(k, "k", &sample_counters(k.point_fp))
                .expect("put");
        }
        // Touch keys 2 and 3 so 0 and 1 are coldest.
        assert!(store.get(keys[2]).is_some());
        assert!(store.get(keys[3]).is_some());
        let per_record = store.bytes() / 4;
        let gc = store.gc(per_record * 2).expect("gc");
        assert_eq!(gc.evicted, 2);
        assert!(gc.remaining_bytes <= per_record * 2);
        assert_eq!(store.get(keys[0]), None);
        assert_eq!(store.get(keys[1]), None);
        assert!(store.get(keys[2]).is_some());
        assert!(store.get(keys[3]).is_some());
        // `gc(0)` empties the store.
        let gc = store.gc(0).expect("gc all");
        assert_eq!(gc.evicted, 2);
        assert_eq!(store.len(), 0);
        assert_eq!(store.bytes(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_edge_cases_are_total() {
        // gc on an empty store is a no-op at any budget, including 0.
        let root = tmp_root("gc-edge");
        let store = ResultStore::open(&root).expect("open");
        let gc = store.gc(0).expect("gc empty at 0");
        assert_eq!((gc.evicted, gc.remaining_bytes), (0, 0));
        let gc = store.gc(u64::MAX).expect("gc empty at max");
        assert_eq!((gc.evicted, gc.remaining_bytes), (0, 0));

        // `max_bytes = 0` on a populated store evicts everything and
        // leaves index, counters and disk agreeing.
        for i in 0..3 {
            let k = StoreKey::new(20, i);
            store
                .put(k, "k", &sample_counters(k.point_fp))
                .expect("put");
        }
        let gc = store.gc(0).expect("gc all");
        assert_eq!(gc.evicted, 3);
        assert_eq!(gc.remaining_bytes, 0);
        assert_eq!(store.len(), 0);
        assert_eq!(store.bytes(), 0);

        // gc twice: the second pass finds nothing to evict.
        let gc = store.gc(0).expect("gc again");
        assert_eq!(gc.evicted, 0);
        assert_eq!(gc.remaining_bytes, 0);

        // The emptied store is still fully usable, and a reopen agrees.
        let k = StoreKey::new(21, 0);
        store
            .put(k, "k", &sample_counters(7))
            .expect("put after gc");
        assert!(store.get(k).is_some());
        let reopened = ResultStore::open(&root).expect("reopen");
        assert!(reopened.get(k).is_some());
        assert_eq!(reopened.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shard_records_round_trip_and_reject_corruption() {
        let root = tmp_root("shards");
        let store = ResultStore::open(&root).expect("open");
        let fp = 0x00c0_ffee_0000_0001u64;
        assert_eq!(store.shard_complete(fp), None);
        assert_eq!(store.shards_complete(), 0);

        let result = Json::obj()
            .field("figure", Json::str("fig5a"))
            .field("points", Json::UInt(14));
        store.mark_shard_complete(fp, &result).expect("mark");
        assert_eq!(store.shard_complete(fp), Some(result.clone()));
        assert_eq!(store.shards_complete(), 1);
        // A second handle (a resumed orchestrator) sees the record.
        let reopened = ResultStore::open(&root).expect("reopen");
        assert_eq!(reopened.shard_complete(fp), Some(result.clone()));

        // Wrong version or wrong fingerprint echo → treated as absent.
        let path = root.join("shards").join(format!("{fp:016x}.json"));
        let text = fs::read_to_string(&path).expect("read");
        fs::write(
            &path,
            text.replace("\"shard_version\": 1", "\"shard_version\": 9"),
        )
        .expect("rewrite");
        assert_eq!(store.shard_complete(fp), None);
        store.mark_shard_complete(fp, &result).expect("re-mark");
        let other = fp + 1;
        fs::copy(
            &path,
            root.join("shards").join(format!("{other:016x}.json")),
        )
        .expect("cross-copy");
        assert_eq!(store.shard_complete(other), None, "wrong fp echo");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_never_touches_shard_completion_records() {
        let root = tmp_root("shard-gc");
        let store = ResultStore::open(&root).expect("open");
        for i in 0..4 {
            store
                .put(StoreKey::new(20, i), "k", &sample_counters(i))
                .expect("put");
        }
        let fp = 0xfeed_0000_0000_0002u64;
        store
            .mark_shard_complete(fp, &Json::obj().field("ok", Json::Bool(true)))
            .expect("mark");
        let gc = store.gc(0).expect("gc all");
        assert_eq!(gc.evicted, 4);
        assert_eq!(store.len(), 0);
        assert!(
            store.shard_complete(fp).is_some(),
            "a zero-byte budget must not erase completion evidence"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lost_index_is_rebuilt_from_records() {
        let root = tmp_root("rebuild");
        let key = StoreKey::new(3, 4);
        let c = sample_counters(5);
        {
            let store = ResultStore::open(&root).expect("open");
            store.put(key, "k", &c).expect("put");
        }
        fs::write(root.join("index.json"), "not json at all").expect("corrupt index");
        let store = ResultStore::open(&root).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(key), Some(c));
        let _ = fs::remove_dir_all(&root);
    }
}
