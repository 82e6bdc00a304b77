//! The content-addressed result cache.
//!
//! Jobs are deterministic, so [`engine::spec_fingerprint`] — the canonical
//! hash of the jobs plus the engine-relevant execution parameters — fully
//! identifies a submission's result bytes.  The cache maps that fingerprint
//! to the recorded stream of [`JobFrame`]s; a hit replays the original
//! frames verbatim, including the original run's [`engine::JobMetrics`]
//! (telemetry of the run that produced the bytes, not of the lookup).
//!
//! The cache is bounded by an optional entry budget and an optional byte
//! budget (serialized frame bytes).  When an insert pushes the cache over
//! either budget, the **least recently used** entries are evicted until it
//! fits again — a hit refreshes an entry's recency, so the resident set
//! tracks the live experiment catalog.  A single entry larger than the
//! whole byte budget is evicted immediately after insertion (it can never
//! fit), which degrades that fingerprint to recompute-on-every-submission
//! rather than letting one oversized result pin the cache.  Evictions are
//! counted for the server's telemetry.
//!
//! # Persistence
//!
//! With [`ResultCache::attach_dir`] the cache becomes durable: every insert
//! writes a checksummed entry file (`<fingerprint>.smsc`, written to a temp
//! name and renamed so a crash never leaves a half-written entry under the
//! real name), evictions delete the file, and a restart reloads whatever
//! the directory holds under the cache's budgets, deleting the files of
//! entries the reload itself evicts, so the directory never holds more than
//! the budgets allow across restarts.  Recovery is **corruption-tolerant**:
//! an entry that is truncated, fails its FNV-1a checksum, does not parse,
//! or carries another format version is skipped and counted
//! ([`ResultCache::load_skipped`]) — one bad file costs one recomputation,
//! never the startup.

use crate::protocol::JobFrame;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One cached result stream with its bookkeeping.
#[derive(Debug)]
struct Entry {
    frames: Vec<JobFrame>,
    /// Serialized size of `frames`, the unit of the byte budget.
    bytes: u64,
    /// Recency stamp: the cache-wide tick of the last insert or hit.
    tick: u64,
}

/// Fingerprint-keyed store of recorded result streams with LRU eviction
/// and hit/miss/eviction counters for the server's telemetry.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: HashMap<String, Entry>,
    /// Maximum resident entries (`0` = unlimited).
    max_entries: usize,
    /// Maximum resident serialized bytes (`0` = unlimited).
    max_bytes: u64,
    /// Serialized bytes currently resident.
    bytes: u64,
    /// Monotonic recency clock, bumped on every insert and hit.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_bytes: u64,
    /// Directory entries are persisted into, when attached.
    dir: Option<PathBuf>,
    /// Entries reloaded from the directory at attach time.
    loaded: u64,
    /// Corrupt or truncated entry files skipped at attach time.
    load_skipped: u64,
    /// Entry writes that failed (persistence is best-effort; the in-memory
    /// cache stays authoritative).
    persist_failures: u64,
}

impl ResultCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given budgets (`0` = unlimited for each).
    pub fn with_budget(max_entries: usize, max_bytes: u64) -> Self {
        Self {
            max_entries,
            max_bytes,
            ..Self::default()
        }
    }

    /// Looks up a fingerprint, counting the outcome; a hit refreshes the
    /// entry's recency and clones the recorded frames for replay.
    pub fn lookup(&mut self, fingerprint: &str) -> Option<Vec<JobFrame>> {
        self.tick += 1;
        match self.entries.get_mut(fingerprint) {
            Some(entry) => {
                entry.tick = self.tick;
                self.hits += 1;
                Some(entry.frames.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a completed submission's frames, then evicts least recently
    /// used entries until the budgets hold.  Re-inserting an existing
    /// fingerprint refreshes its recency but keeps the first recording:
    /// determinism guarantees the bytes match, and keeping the original
    /// makes concurrent identical submissions idempotent.  With a directory
    /// attached, a fresh entry is also persisted to disk.
    pub fn insert(&mut self, fingerprint: String, frames: Vec<JobFrame>) {
        self.insert_inner(fingerprint, frames, true);
    }

    fn insert_inner(&mut self, fingerprint: String, frames: Vec<JobFrame>, persist: bool) {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.entry(fingerprint) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                occupied.get_mut().tick = tick;
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                let bytes = serialized_bytes(&frames);
                self.bytes += bytes;
                if persist {
                    if let Some(dir) = &self.dir {
                        let fingerprint = vacant.key().clone();
                        if persist_entry(dir, &fingerprint, &frames).is_err() {
                            self.persist_failures += 1;
                        }
                    }
                }
                vacant.insert(Entry {
                    frames,
                    bytes,
                    tick,
                });
            }
        }
        self.enforce_budget();
    }

    /// Evicts least-recently-used entries while either budget is exceeded,
    /// deleting the persisted files of evicted entries so the directory
    /// tracks the resident set.
    fn enforce_budget(&mut self) {
        while self.over_budget() {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.tick)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let entry = self.entries.remove(&oldest).expect("key just observed");
            self.bytes -= entry.bytes;
            self.evictions += 1;
            self.evicted_bytes += entry.bytes;
            if let Some(dir) = &self.dir {
                std::fs::remove_file(entry_path(dir, &oldest)).ok();
            }
        }
    }

    /// Attaches a persistence directory: creates it if missing, reloads
    /// every readable entry it holds (in sorted filename order, so recency
    /// after a restart is deterministic), and persists future inserts into
    /// it.  Reloaded entries obey the budgets like any insert, and the file
    /// of an entry the reload evicts is deleted.  Corrupt, truncated or
    /// misnamed entry files are skipped and counted, never fatal.
    ///
    /// # Errors
    ///
    /// Only when the directory itself cannot be created or read — a server
    /// asked to persist into an unusable path should fail loudly at startup
    /// rather than run silently non-durable.
    pub fn attach_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        // Attached before the reload, so evictions during it delete their
        // files; reloaded entries are not written back (`persist: false`).
        self.dir = Some(dir.to_path_buf());
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == ENTRY_EXTENSION))
            .collect();
        names.sort();
        for path in names {
            let fingerprint = match path.file_stem().and_then(|stem| stem.to_str()) {
                Some(stem) => stem.to_string(),
                None => {
                    self.load_skipped += 1;
                    continue;
                }
            };
            let frames = match std::fs::read(&path).ok().and_then(|b| decode_entry(&b)) {
                Some(frames) => frames,
                None => {
                    self.load_skipped += 1;
                    continue;
                }
            };
            self.loaded += 1;
            self.insert_inner(fingerprint, frames, false);
        }
        Ok(())
    }

    /// Entries reloaded from the attached directory.
    pub fn loaded(&self) -> u64 {
        self.loaded
    }

    /// Corrupt or truncated entry files skipped while reloading.
    pub fn load_skipped(&self) -> u64 {
        self.load_skipped
    }

    /// Entry writes that failed (persistence is best-effort).
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures
    }

    fn over_budget(&self) -> bool {
        (self.max_entries > 0 && self.entries.len() > self.max_entries)
            || (self.max_bytes > 0 && self.bytes > self.max_bytes)
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of recorded entries currently resident.
    pub fn entries(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Serialized bytes currently resident.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Entries evicted to hold the budgets.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Serialized bytes reclaimed by evictions.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }
}

/// Extension of persisted cache entry files.
const ENTRY_EXTENSION: &str = "smsc";

/// Magic + format version of the entry-file header line.  Version 2 entries
/// are keyed by fingerprints of the current cache-key layout; version 1
/// files are skipped on reload rather than resident under keys no
/// submission can produce any more.
const ENTRY_MAGIC: &str = "SMSCACHE 2";

/// Path of a fingerprint's entry file inside the attached directory.
fn entry_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!("{fingerprint}.{ENTRY_EXTENSION}"))
}

/// Encodes a frame stream as a self-validating entry file:
/// `SMSCACHE 2 <fnv1a-hex> <payload-len>\n` followed by the JSON payload.
/// The length catches truncation cheaply; the checksum catches corruption.
fn encode_entry(frames: &[JobFrame]) -> Vec<u8> {
    let payload = serde_json::to_string(&frames).expect("value-tree serialization cannot fail");
    let mut bytes = format!(
        "{ENTRY_MAGIC} {:016x} {}\n",
        engine::fnv1a_64(payload.as_bytes()),
        payload.len()
    )
    .into_bytes();
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

/// Decodes an entry file, returning `None` for anything malformed: a wrong
/// magic or version, a header that does not parse, a payload whose length or
/// checksum disagrees with the header, or JSON that no longer decodes.
fn decode_entry(bytes: &[u8]) -> Option<Vec<JobFrame>> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let rest = header.strip_prefix(ENTRY_MAGIC)?.trim_start();
    let mut fields = rest.split_ascii_whitespace();
    let checksum = u64::from_str_radix(fields.next()?, 16).ok()?;
    let length: usize = fields.next()?.parse().ok()?;
    if fields.next().is_some() {
        return None;
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != length || engine::fnv1a_64(payload) != checksum {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
}

/// Writes a fingerprint's entry file atomically: the bytes land under a
/// temp name first and are renamed into place, so a crash mid-write leaves
/// at worst a stray temp file, never a half-written entry.
fn persist_entry(dir: &Path, fingerprint: &str, frames: &[JobFrame]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{fingerprint}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&encode_entry(frames))?;
    file.sync_all()?;
    std::fs::rename(&tmp, entry_path(dir, fingerprint))
}

/// Serialized size of a frame stream — the byte-budget unit, chosen because
/// it tracks what a hit actually saves (bytes recomputed and re-streamed)
/// and is stable across platforms, unlike in-memory size.
fn serialized_bytes(frames: &[JobFrame]) -> u64 {
    frames
        .iter()
        .map(|frame| {
            serde_json::to_string(frame)
                .expect("value-tree serialization cannot fail")
                .len() as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::JobMetrics;

    #[test]
    fn lookup_counts_and_replays_identical_frames() {
        let mut cache = ResultCache::new();
        assert_eq!(cache.lookup("abc"), None);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (0, 1, 0));

        cache.insert("abc".to_string(), Vec::new());
        assert_eq!(cache.lookup("abc"), Some(Vec::new()));
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));

        // First recording wins; the counters keep accumulating.
        cache.insert("abc".to_string(), Vec::new());
        assert_eq!(cache.entries(), 1);
    }

    fn frame(tag: u64) -> JobFrame {
        JobFrame {
            result: engine::JobResult {
                job_index: tag as usize,
                summary: memsim::RunSummary::default(),
                probe: engine::ProbeReport::none(),
                timing: None,
                warnings: Vec::new(),
            },
            metrics: JobMetrics::default(),
        }
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let mut cache = ResultCache::with_budget(2, 0);
        cache.insert("a".to_string(), vec![frame(1)]);
        cache.insert("b".to_string(), vec![frame(2)]);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.lookup("a").is_some());
        cache.insert("c".to_string(), vec![frame(3)]);

        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup("a").is_some(), "recently used survives");
        assert!(cache.lookup("c").is_some(), "just inserted survives");
        assert!(cache.lookup("b").is_none(), "LRU entry evicted");
    }

    #[test]
    fn byte_budget_evicts_and_counts_reclaimed_bytes() {
        let one_frame_bytes = serialized_bytes(&[frame(0)]);
        // Room for two single-frame entries but not three.
        let mut cache = ResultCache::with_budget(0, one_frame_bytes * 2);
        cache.insert("a".to_string(), vec![frame(1)]);
        cache.insert("b".to_string(), vec![frame(2)]);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.bytes(), one_frame_bytes * 2);

        cache.insert("c".to_string(), vec![frame(3)]);
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.evicted_bytes(), one_frame_bytes);
        assert_eq!(cache.bytes(), one_frame_bytes * 2);
        assert!(cache.lookup("a").is_none(), "oldest entry evicted");
    }

    #[test]
    fn oversized_lone_entry_cannot_pin_the_cache() {
        let mut cache = ResultCache::with_budget(0, 1);
        cache.insert("huge".to_string(), vec![frame(1), frame(2)]);
        assert_eq!(cache.entries(), 0, "an entry over the whole budget goes");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.lookup("huge").is_none());
    }

    /// A fresh, empty scratch directory unique to the calling test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sms-cache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn entries_survive_a_restart_through_the_attached_dir() {
        let dir = scratch("restart");
        let mut first = ResultCache::new();
        first.attach_dir(&dir).unwrap();
        first.insert("aaaa".to_string(), vec![frame(1)]);
        first.insert("bbbb".to_string(), vec![frame(2), frame(3)]);
        drop(first);

        let mut reborn = ResultCache::new();
        reborn.attach_dir(&dir).unwrap();
        assert_eq!(reborn.loaded(), 2);
        assert_eq!(reborn.load_skipped(), 0);
        assert_eq!(reborn.lookup("aaaa"), Some(vec![frame(1)]));
        assert_eq!(reborn.lookup("bbbb"), Some(vec![frame(2), frame(3)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_entry_files_are_skipped_not_fatal() {
        let dir = scratch("corrupt");
        let mut writer = ResultCache::new();
        writer.attach_dir(&dir).unwrap();
        writer.insert("good".to_string(), vec![frame(7)]);
        drop(writer);

        // Flipped payload byte: checksum mismatch.
        let good = std::fs::read(entry_path(&dir, "good")).unwrap();
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        std::fs::write(entry_path(&dir, "flipped"), &flipped).unwrap();
        // Truncated payload: length mismatch.
        std::fs::write(entry_path(&dir, "short"), &good[..good.len() - 3]).unwrap();
        // Not an entry file at all.
        std::fs::write(entry_path(&dir, "noise"), b"hello\nworld").unwrap();

        let mut reborn = ResultCache::new();
        reborn.attach_dir(&dir).unwrap();
        assert_eq!(reborn.loaded(), 1, "only the intact entry loads");
        assert_eq!(reborn.load_skipped(), 3);
        assert_eq!(reborn.lookup("good"), Some(vec![frame(7)]));
        assert_eq!(reborn.lookup("flipped"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_deletes_the_persisted_file() {
        let dir = scratch("evict");
        let mut cache = ResultCache::with_budget(1, 0);
        cache.attach_dir(&dir).unwrap();
        cache.insert("first".to_string(), vec![frame(1)]);
        cache.insert("second".to_string(), vec![frame(2)]);
        assert_eq!(cache.evictions(), 1);
        assert!(!entry_path(&dir, "first").exists(), "evicted file removed");
        assert!(entry_path(&dir, "second").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_under_a_budget_deletes_the_files_it_evicts() {
        let dir = scratch("reload-budget");
        let mut writer = ResultCache::new();
        writer.attach_dir(&dir).unwrap();
        for (tag, name) in ["e1", "e2", "e3", "e4", "e5"].into_iter().enumerate() {
            writer.insert(name.to_string(), vec![frame(tag as u64)]);
        }
        drop(writer);

        let mut reborn = ResultCache::with_budget(2, 0);
        reborn.attach_dir(&dir).unwrap();
        assert_eq!(reborn.loaded(), 5);
        assert_eq!(reborn.entries(), 2);
        assert_eq!(reborn.evictions(), 3);
        // Reload runs in filename order, so the last two stay resident, and
        // exactly their files remain.
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        on_disk.sort();
        assert_eq!(on_disk, ["e4.smsc", "e5.smsc"]);
        assert!(reborn.lookup("e4").is_some());
        assert!(reborn.lookup("e5").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_encoding_round_trips_and_rejects_tampering() {
        let frames = vec![frame(1), frame(2)];
        let bytes = encode_entry(&frames);
        assert_eq!(decode_entry(&bytes), Some(frames));
        assert_eq!(decode_entry(b""), None);
        assert_eq!(decode_entry(b"SMSCACHE 2\n"), None);
        // An intact entry of the previous format version is rejected.
        let payload = b"[]";
        let header = format!("{:016x} {}\n", engine::fnv1a_64(payload), payload.len());
        let current = [format!("SMSCACHE 2 {header}").as_bytes(), payload].concat();
        assert_eq!(decode_entry(&current), Some(Vec::new()));
        let old = [format!("SMSCACHE 1 {header}").as_bytes(), payload].concat();
        assert_eq!(decode_entry(&old), None, "version");
        let mut tampered = bytes.clone();
        *tampered.last_mut().unwrap() ^= 0x40;
        assert_eq!(decode_entry(&tampered), None, "checksum");
        assert_eq!(decode_entry(&bytes[..bytes.len() - 1]), None, "length");
    }
}
