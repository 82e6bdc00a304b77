//! The content-addressed result cache.
//!
//! Jobs are deterministic, so [`engine::spec_fingerprint`] — the canonical
//! hash of the jobs — fully identifies a submission's result bytes.  The cache maps that fingerprint
//! to the recorded stream of [`JobFrame`]s; a hit replays the original
//! frames verbatim.  It is an unbounded map: every result the server
//! computes stays resident until the server exits.
//!
//! # Persistence
//!
//! With [`ResultCache::attach_dir`] the cache becomes durable: every insert
//! writes a checksummed entry file (`<fingerprint>.smsc`, written to a temp
//! name and renamed so a crash never leaves a half-written entry under the
//! real name), and a restart reloads whatever the directory holds.
//! Recovery is **corruption-tolerant**: an entry that is truncated, fails
//! its FNV-1a checksum, does not parse, or carries another format version
//! is skipped and counted ([`ResultCache::load_skipped`]) — one bad file
//! costs one recomputation, never the startup.

use crate::protocol::JobFrame;
use std::collections::hash_map::{Entry, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Fingerprint-keyed store of recorded result streams, with hit/miss and
/// persistence counters for the server's telemetry.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: HashMap<String, Vec<JobFrame>>,
    hits: u64,
    misses: u64,
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
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a fingerprint, counting the outcome; a hit clones the
    /// recorded frames for replay.
    pub fn lookup(&mut self, fingerprint: &str) -> Option<Vec<JobFrame>> {
        let frames = self.entries.get(fingerprint).cloned();
        match frames {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        frames
    }

    /// Records a completed submission's frames.  Re-inserting an existing
    /// fingerprint keeps the first recording: determinism guarantees the
    /// bytes match, and keeping the original makes concurrent identical
    /// submissions idempotent.  With a directory attached, a fresh entry is
    /// also persisted to disk.
    pub fn insert(&mut self, fingerprint: String, frames: Vec<JobFrame>) {
        if let Entry::Vacant(vacant) = self.entries.entry(fingerprint) {
            if let Some(dir) = &self.dir {
                if persist_entry(dir, vacant.key(), &frames).is_err() {
                    self.persist_failures += 1;
                }
            }
            vacant.insert(frames);
        }
    }

    /// Attaches a persistence directory: creates it if missing, reloads
    /// every readable entry it holds, and persists future inserts into it.
    /// Corrupt, truncated or misnamed entry files are skipped and counted,
    /// never fatal.
    ///
    /// # Errors
    ///
    /// Only when the directory itself cannot be created or read — a server
    /// asked to persist into an unusable path should fail loudly at startup
    /// rather than run silently non-durable.
    pub fn attach_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let paths = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == ENTRY_EXTENSION));
        for path in paths {
            let fingerprint = path.file_stem().and_then(|stem| stem.to_str());
            let frames = std::fs::read(&path).ok().and_then(|b| decode_entry(&b));
            match (fingerprint, frames) {
                (Some(fingerprint), Some(frames)) => {
                    self.loaded += 1;
                    self.entries.insert(fingerprint.to_string(), frames);
                }
                _ => self.load_skipped += 1,
            }
        }
        self.dir = Some(dir.to_path_buf());
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
}

/// Extension of persisted cache entry files.
const ENTRY_EXTENSION: &str = "smsc";

/// Magic + format version of the entry-file header line.  Version 3 entries
/// are keyed by fingerprints of the current cache-key layout (the jobs
/// alone); files of older versions are skipped on reload rather than
/// resident under keys no submission can produce any more.
const ENTRY_MAGIC: &str = "SMSCACHE 3";

/// Path of a fingerprint's entry file inside the attached directory.
fn entry_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!("{fingerprint}.{ENTRY_EXTENSION}"))
}

/// Encodes a frame stream as a self-validating entry file (see
/// [`entry_bytes`]).
fn encode_entry(frames: &[JobFrame]) -> Vec<u8> {
    let payload = serde_json::to_string(&frames).expect("value-tree serialization cannot fail");
    entry_bytes(payload.as_bytes())
}

/// An entry file holding `payload`: `SMSCACHE 3 <fnv1a-hex> <payload-len>\n`
/// followed by the payload.  The length catches truncation cheaply; the
/// checksum catches corruption.
fn entry_bytes(payload: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{ENTRY_MAGIC} {:016x} {}\n",
        engine::fnv1a_64(payload),
        payload.len()
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
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

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{PrefetcherSpec, RunOptions, SimJob};
    use proptest::prelude::*;

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
        }
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
    fn entry_encoding_round_trips_and_rejects_tampering() {
        let frames = vec![frame(1), frame(2)];
        let bytes = encode_entry(&frames);
        assert_eq!(decode_entry(&bytes), Some(frames));
        assert_eq!(decode_entry(b""), None);
        assert_eq!(decode_entry(b"SMSCACHE 3\n"), None);
        // Intact entries of the previous format versions are rejected.
        let payload = b"[]";
        let header = format!("{:016x} {}\n", engine::fnv1a_64(payload), payload.len());
        let current = [format!("SMSCACHE 3 {header}").as_bytes(), payload].concat();
        assert_eq!(decode_entry(&current), Some(Vec::new()));
        for version in [1, 2] {
            let old = [format!("SMSCACHE {version} {header}").as_bytes(), payload].concat();
            assert_eq!(decode_entry(&old), None, "version {version}");
        }
        let mut tampered = bytes.clone();
        *tampered.last_mut().unwrap() ^= 0x40;
        assert_eq!(decode_entry(&tampered), None, "checksum");
        assert_eq!(decode_entry(&bytes[..bytes.len() - 1]), None, "length");
    }

    /// An entry written while every frame also carried its job's timing
    /// record (`metrics`, since removed): the two jobs of [`entry_jobs`].
    const ENTRY_WITH_METRICS: &[u8] = include_bytes!("../testdata/entry_with_metrics.smsc");

    /// 2,000 accesses of 2-CPU OltpDb2 at seed 2006: a baseline, and SMS
    /// under Figure 12's timing model.
    fn entry_jobs() -> Vec<SimJob> {
        let job = |prefetcher| {
            SimJob::new(memsim::SimJob::synthetic(
                trace::Application::OltpDb2,
                trace::GeneratorConfig::default().with_cpus(2),
                2006,
                2,
                memsim::HierarchyConfig::scaled(),
                prefetcher,
                2_000,
            ))
        };
        let timing = timing::TimingConfig::table1().with_system_busy_fraction(0.25);
        vec![
            job(PrefetcherSpec::null()),
            job(PrefetcherSpec::sms_paper_default()).with_timing(timing, 20),
        ]
    }

    /// The entry's payload: everything after its header line.
    fn payload(entry: &[u8]) -> &[u8] {
        let newline = entry
            .iter()
            .position(|&b| b == b'\n')
            .expect("a header line");
        &entry[newline + 1..]
    }

    #[test]
    fn an_entry_whose_frames_carry_metrics_replays_the_same_result_bytes() {
        let jobs = entry_jobs();
        assert_eq!(engine::spec_fingerprint(&jobs), "7e1d613d8ceab465");
        let frames = decode_entry(ENTRY_WITH_METRICS).expect("the entry still loads");
        let recorded: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(payload(ENTRY_WITH_METRICS)).unwrap())
                .unwrap();
        let recorded = recorded.as_array().expect("a frame list");
        let mut computed = Vec::new();
        engine::execute(&jobs, &RunOptions::new(1), &mut |result| {
            computed.push(result)
        })
        .expect("the jobs run");
        assert_eq!(frames.len(), jobs.len());
        assert_eq!(recorded.len(), jobs.len());
        for ((frame, recorded), computed) in frames.iter().zip(recorded).zip(&computed) {
            assert!(recorded.get("metrics").is_some(), "the fixture has metrics");
            let replayed = serde_json::to_string(&frame.result).unwrap();
            assert_eq!(
                replayed,
                serde_json::to_string(recorded.get("result").expect("a result")).unwrap()
            );
            assert_eq!(replayed, serde_json::to_string(computed).unwrap());
        }
    }

    /// The bytes JSON is made of, weighted towards its structure.
    const JSON_BYTES: &[u8] = b"{}[]{}[]\"\":,:,0123456789.-+eE truefalsenull\\u\n\t";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random bytes rarely get past the header, so random JSON text and
        /// one-byte mutations of a real payload go under a header whose
        /// length and checksum are correct, to reach the JSON decoder.
        #[test]
        fn entry_files_decode_or_are_refused(
            random in proptest::collection::vec(0u8..=255, 0..2048),
            picks in proptest::collection::vec(0..JSON_BYTES.len(), 0..2048),
            (position, byte) in (0usize..1 << 20, 0u8..=255),
        ) {
            let _ = decode_entry(&random);
            let text: Vec<u8> = picks.into_iter().map(|pick| JSON_BYTES[pick]).collect();
            let _ = decode_entry(&entry_bytes(&text));
            let mut mutated = payload(ENTRY_WITH_METRICS).to_vec();
            let at = position % mutated.len();
            mutated[at] = byte;
            let _ = decode_entry(&entry_bytes(&mutated));
            let _ = decode_entry(&entry_bytes(&mutated[..at]));
        }
    }

    #[test]
    fn a_payload_nested_past_the_parser_limit_is_refused() {
        let deep = "[".repeat(100_000);
        assert_eq!(decode_entry(&entry_bytes(deep.as_bytes())), None);
    }
}
