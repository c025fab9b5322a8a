//! The campaign journal: an append-only, checksummed NDJSON record of
//! completed work units, fsync'd in batches.
//!
//! Every line has a fixed frame —
//!
//! ```text
//! {"crc":"<16 hex>","rec":{...the JournalRecord...}}
//! ```
//!
//! — where the crc is FNV-1a over the *exact* serialized record bytes
//! between `"rec":` and the closing brace. The fixed-width prefix means
//! the reader recovers the protected byte range by slicing, not by a
//! re-serialization round-trip, so verification is byte-exact against
//! whatever the writer put on disk.
//!
//! Crash model: the writer buffers records and flushes + `fsync`s the
//! batch every `checkpoint_every` records (one
//! [`Counter::CheckpointFlushes`] per sync). A crash — driver panic,
//! SIGKILL, power loss — therefore costs at most the unsynced tail.
//! [`replay`] reads the longest valid prefix: the first damaged line
//! (torn tail, bit flip, truncation) ends the replay, `campaign resume`
//! cuts the later bytes off, and the units they would have covered are
//! simply re-scanned. Records are deduplicated by campaign id (first
//! occurrence wins), so a unit journaled twice — e.g. re-scanned after
//! a mid-file flip dropped its first record's successors — never counts
//! twice. Scans are deterministic, so a duplicate's fingerprint is
//! byte-identical and dropping it loses nothing.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::ApiLevel;
use saint_obs::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::store::report_fingerprint;

/// One mismatch, reduced to what the aggregate roll-ups need. The full
/// mismatch (site, context, call chain) stays in the daemons' reports;
/// the journal carries only the campaign-level statistics so resumed
/// runs can rebuild the aggregated report without re-scanning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalFinding {
    /// Detector family abbreviation (`saintdroid::Family::name`):
    /// `API`, `APC`, `PRM` or `DSD`.
    pub family: String,
    /// The offending framework API (rendered `MethodRef`).
    pub api: String,
    /// Supported device levels at which the mismatch manifests.
    pub levels: Vec<ApiLevel>,
}

/// One completed work unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The unit's campaign id (see `registry::unit_id`).
    pub id: u64,
    /// The package name, for the human-facing report.
    pub package: String,
    /// FNV-1a fingerprint of the scan report (mismatches + meter), the
    /// quantity the convergence proof compares across runs.
    pub fingerprint: String,
    /// Endpoint of the daemon that served the scan.
    pub daemon: String,
    /// Wire latency of the scan in microseconds.
    pub micros: u64,
    /// How many times this unit was re-dispatched before completing.
    pub resubmits: u32,
    /// The unit's mismatches, reduced for aggregation.
    pub findings: Vec<JournalFinding>,
}

impl JournalRecord {
    /// Builds the record for one completed scan.
    #[must_use]
    pub fn from_report(
        id: u64,
        report: &saintdroid::Report,
        daemon: &str,
        micros: u64,
        resubmits: u32,
    ) -> Self {
        JournalRecord {
            id,
            package: report.package.clone(),
            fingerprint: report_fingerprint(report),
            daemon: daemon.to_string(),
            micros,
            resubmits,
            findings: report
                .mismatches
                .iter()
                .map(|m| JournalFinding {
                    family: m.kind.family().name().to_string(),
                    api: m.api.to_string(),
                    levels: m.missing_levels.clone(),
                })
                .collect(),
        }
    }
}

/// Byte offsets of the fixed line frame: `{"crc":"` + 16 hex +
/// `","rec":` + payload + `}`.
const CRC_PREFIX: &str = "{\"crc\":\"";
const REC_PREFIX: &str = "\",\"rec\":";
const PAYLOAD_AT: usize = 8 + 16 + 8;

/// Appends checksummed records, fsync'ing every `checkpoint_every`
/// records. Call [`sync`](Self::sync) before declaring a campaign
/// finished; dropping the writer flushes best-effort.
pub struct JournalWriter {
    file: std::fs::File,
    buf: Vec<u8>,
    pending: usize,
    checkpoint_every: usize,
    flushes: u64,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` — the `campaign
    /// run` entry point.
    ///
    /// # Errors
    /// File creation failures.
    pub fn create(path: &Path, checkpoint_every: usize) -> Result<Self, CampaignError> {
        let file = std::fs::File::create(path).map_err(|e| {
            CampaignError::io(format!("cannot create journal {}", path.display()), e)
        })?;
        Ok(Self::over(file, checkpoint_every))
    }

    /// Opens an existing journal for appending after its valid prefix —
    /// the `campaign resume` entry point, with `valid_len` from [`replay`]
    /// (which also reports a missing journal). The damaged tail is cut
    /// off first: a record appended after it would fuse with it.
    ///
    /// # Errors
    /// Open or truncation failures.
    pub fn append_to(
        path: &Path,
        valid_len: u64,
        checkpoint_every: usize,
    ) -> Result<Self, CampaignError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|file| file.set_len(valid_len).map(|()| file))
            .map_err(|e| CampaignError::io(format!("cannot open journal {}", path.display()), e))?;
        Ok(Self::over(file, checkpoint_every))
    }

    fn over(file: std::fs::File, checkpoint_every: usize) -> Self {
        JournalWriter {
            file,
            buf: Vec::new(),
            pending: 0,
            checkpoint_every: checkpoint_every.max(1),
            flushes: 0,
            metrics: None,
        }
    }

    /// Attaches a registry; every batch fsync bumps
    /// [`Counter::CheckpointFlushes`].
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Appends one record; flushes + fsyncs when the batch is full.
    ///
    /// # Errors
    /// Serialization or write failures.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), CampaignError> {
        let payload = serde_json::to_string(record).map_err(|e| {
            CampaignError::io("journal record serialization", std::io::Error::other(e))
        })?;
        let crc = fnv1a(payload.as_bytes(), FNV_OFFSET);
        self.buf.extend_from_slice(CRC_PREFIX.as_bytes());
        self.buf.extend_from_slice(format!("{crc:016x}").as_bytes());
        self.buf.extend_from_slice(REC_PREFIX.as_bytes());
        self.buf.extend_from_slice(payload.as_bytes());
        self.buf.extend_from_slice(b"}\n");
        self.pending += 1;
        if self.pending >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes the buffered batch and fsyncs it to disk.
    fn checkpoint(&mut self) -> Result<(), CampaignError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.buf)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| CampaignError::io("journal checkpoint write", e))?;
        self.buf.clear();
        self.pending = 0;
        self.flushes += 1;
        if let Some(metrics) = &self.metrics {
            metrics.add(Counter::CheckpointFlushes, 1);
        }
        Ok(())
    }

    /// Checkpoint batches fsync'd by this writer so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Forces the final checkpoint — call once the campaign is done.
    ///
    /// # Errors
    /// Write or fsync failures.
    pub fn sync(&mut self) -> Result<(), CampaignError> {
        self.checkpoint()
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Best-effort: a panicking driver still lands whatever the OS
        // will take; the real durability contract is the batched fsync.
        if !self.buf.is_empty() {
            let _ = self.file.write_all(&self.buf);
            let _ = self.file.sync_data();
        }
    }
}

/// What [`replay`] salvaged.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// The valid-prefix records, deduplicated by id (first wins), in
    /// file order.
    pub records: Vec<JournalRecord>,
    /// Valid lines consumed (duplicates included).
    pub lines: usize,
    /// Duplicate-id records dropped.
    pub duplicates: usize,
    /// Whether the file ended in a damaged line/tail that was ignored.
    pub truncated: bool,
    /// Byte length of the valid prefix, where a resume appends.
    pub valid_len: u64,
}

/// Reads the longest valid prefix of a journal. Never panics on any
/// byte sequence: damage at line `k > 0` truncates the replay there
/// (the lost units get re-scanned); a journal whose *first* line is
/// already unreadable is rejected with a typed error, because "resume"
/// would silently be a restart. A line without its newline is torn.
///
/// # Errors
/// [`CampaignError::JournalMissing`] / [`CampaignError::JournalCorrupt`]
/// and I/O failures.
pub fn replay(path: &Path) -> Result<JournalReplay, CampaignError> {
    if !path.exists() {
        return Err(CampaignError::JournalMissing {
            path: path.to_path_buf(),
        });
    }
    let bytes = std::fs::read(path)
        .map_err(|e| CampaignError::io(format!("cannot read journal {}", path.display()), e))?;
    let mut out = JournalReplay::default();
    let mut seen = std::collections::HashSet::new();
    for (lineno, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let framed = line.strip_suffix(b"\n").ok_or("torn line (no newline)");
        let record = match framed.map_err(str::to_string).and_then(parse_line) {
            Ok(record) => record,
            Err(reason) => {
                if lineno == 0 {
                    return Err(CampaignError::JournalCorrupt {
                        path: path.to_path_buf(),
                        reason,
                    });
                }
                out.truncated = true;
                break;
            }
        };
        out.lines += 1;
        out.valid_len += line.len() as u64;
        if seen.insert(record.id) {
            out.records.push(record);
        } else {
            out.duplicates += 1;
        }
    }
    Ok(out)
}

/// Verifies one framed line and parses its record.
fn parse_line(line: &[u8]) -> Result<JournalRecord, String> {
    let text = std::str::from_utf8(line).map_err(|_| "not utf-8".to_string())?;
    if !text.starts_with(CRC_PREFIX) || text.len() < PAYLOAD_AT + 1 {
        return Err("missing crc frame".to_string());
    }
    let crc_hex = &text[CRC_PREFIX.len()..CRC_PREFIX.len() + 16];
    let crc = u64::from_str_radix(crc_hex, 16).map_err(|_| "crc is not hex".to_string())?;
    if &text[CRC_PREFIX.len() + 16..PAYLOAD_AT] != REC_PREFIX {
        return Err("missing rec frame".to_string());
    }
    if !text.ends_with('}') {
        return Err("torn line".to_string());
    }
    let payload = &text[PAYLOAD_AT..text.len() - 1];
    let actual = fnv1a(payload.as_bytes(), FNV_OFFSET);
    if actual != crc {
        return Err(format!("crc mismatch ({actual:016x} != {crc_hex})"));
    }
    serde_json::from_str::<JournalRecord>(payload).map_err(|e| format!("unparseable record: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> JournalRecord {
        JournalRecord {
            id,
            package: format!("com.app.{id}"),
            fingerprint: format!("{id:016x}"),
            daemon: "127.0.0.1:9000".to_string(),
            micros: 1234,
            resubmits: 0,
            findings: vec![JournalFinding {
                family: "API".to_string(),
                api: "android.x.Y.api()V".to_string(),
                levels: vec![ApiLevel::new(21), ApiLevel::new(22)],
            }],
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("saint-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrips_and_dedups_by_id() {
        let path = temp("roundtrip");
        let mut w = JournalWriter::create(&path, 2).expect("create");
        for id in [1, 2, 3, 2] {
            w.append(&record(id)).expect("append");
        }
        w.sync().expect("sync");
        drop(w);
        let replay = replay(&path).expect("replay");
        assert_eq!(replay.lines, 4);
        assert_eq!(replay.duplicates, 1);
        assert!(!replay.truncated);
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
        let ids: Vec<u64> = replay.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(replay.records[0], record(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_batching_counts_flushes() {
        let path = temp("flushes");
        let metrics = Arc::new(MetricsRegistry::new());
        let mut w = JournalWriter::create(&path, 3)
            .expect("create")
            .with_metrics(Arc::clone(&metrics));
        for id in 0..7 {
            w.append(&record(id)).expect("append");
        }
        // 7 records at a batch of 3: two full batches checkpointed, one
        // record still buffered.
        assert_eq!(metrics.counter(Counter::CheckpointFlushes), 2);
        w.sync().expect("sync");
        assert_eq!(metrics.counter(Counter::CheckpointFlushes), 3);
        w.sync().expect("idempotent sync");
        assert_eq!(metrics.counter(Counter::CheckpointFlushes), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_clean_truncation() {
        let path = temp("torn");
        let mut w = JournalWriter::create(&path, 1).expect("create");
        for id in 0..3 {
            w.append(&record(id)).expect("append");
        }
        w.sync().expect("sync");
        drop(w);
        // Chop the file mid-way through the last line.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        let replay = replay(&path).expect("salvage");
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 2);
        let last_line = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n');
        assert_eq!(replay.valid_len, last_line.unwrap() as u64 + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_line_damage_is_a_typed_error() {
        let path = temp("first");
        std::fs::write(&path, b"not a journal at all\n").expect("write");
        let err = replay(&path).expect_err("corrupt");
        assert!(matches!(err, CampaignError::JournalCorrupt { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_a_typed_error() {
        let err = replay(Path::new("/nonexistent/campaign.journal")).expect_err("missing");
        assert!(matches!(err, CampaignError::JournalMissing { .. }), "{err}");
    }

    #[test]
    fn bit_flip_in_payload_is_caught_by_crc() {
        let path = temp("flip");
        let mut w = JournalWriter::create(&path, 1).expect("create");
        for id in 0..3 {
            w.append(&record(id)).expect("append");
        }
        w.sync().expect("sync");
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte inside the second line's payload.
        let second_line_at = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("first newline")
            + 1;
        bytes[second_line_at + PAYLOAD_AT + 4] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let replay = replay(&path).expect("salvage");
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 1, "prefix before the flip only");
        std::fs::remove_file(&path).ok();
    }
}
