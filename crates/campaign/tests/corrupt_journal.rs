//! Property tests for journal robustness: arbitrary truncation and
//! bit flips over a valid journal must never panic the reader, never
//! double-count a unit, and always yield either a typed error or a
//! clean salvageable prefix of the original records — and a resume
//! over the damage must append after that prefix, so every later
//! replay sees the resumed records.

use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;

use saint_campaign::journal::{replay, JournalFinding, JournalRecord, JournalWriter};
use saint_campaign::CampaignError;
use saint_ir::ApiLevel;

fn record(id: u64) -> JournalRecord {
    JournalRecord {
        id,
        package: format!("com.app.{id}"),
        fingerprint: format!("{:016x}", id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        daemon: "127.0.0.1:9000".to_string(),
        micros: 1000 + id,
        resubmits: (id % 3) as u32,
        findings: (0..(id % 4))
            .map(|k| JournalFinding {
                family: ["API", "APC", "PRM"][(k % 3) as usize].to_string(),
                api: format!("android.pkg.C{k}.m{k}()V"),
                levels: vec![ApiLevel::new(20 + k as u8)],
            })
            .collect(),
    }
}

/// Writes a fully-synced journal of `n` records and returns its bytes.
fn journal_bytes(n: u64, tag: &str) -> (PathBuf, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "saint-corrupt-journal-{tag}-{}-{:x}.journal",
        std::process::id(),
        n
    ));
    let mut writer = JournalWriter::create(&path, 4).expect("create journal");
    for id in 0..n {
        writer.append(&record(id)).expect("append");
    }
    writer.sync().expect("sync");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

/// The invariants every damaged journal must satisfy: no panic (the
/// call returning at all), unique ids, and records forming a prefix of
/// (a subset of) the originals with identical content.
fn check_damaged(path: &PathBuf, damaged: &[u8], originals: u64) {
    std::fs::write(path, damaged).expect("write damaged");
    match replay(path) {
        Ok(replayed) => {
            let mut seen = std::collections::HashSet::new();
            for rec in &replayed.records {
                assert!(seen.insert(rec.id), "id {} double-counted", rec.id);
                assert!(rec.id < originals, "id {} was never written", rec.id);
                assert_eq!(
                    rec,
                    &record(rec.id),
                    "salvaged record {} does not match what was written",
                    rec.id
                );
            }
        }
        Err(CampaignError::JournalCorrupt { .. }) | Err(CampaignError::Io { .. }) => {
            // Typed rejection is the other legal outcome.
        }
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_journal_never_panics_or_double_counts(
        n in 1u64..12,
        cut in 0usize..4096,
    ) {
        let (path, bytes) = journal_bytes(n, "trunc");
        let cut = cut.min(bytes.len());
        check_damaged(&path, &bytes[..cut], n);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_journal_never_panics_or_double_counts(
        n in 1u64..12,
        flips in vec((0usize..4096, 0u8..8), 1..6),
    ) {
        let (path, mut bytes) = journal_bytes(n, "flip");
        for (at, bit) in flips {
            let len = bytes.len();
            bytes[at % len] ^= 1 << bit;
        }
        check_damaged(&path, &bytes, n);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flip_then_salvage_is_a_strict_prefix(
        n in 2u64..12,
        line in 1u64..11,
        offset in 0usize..64,
    ) {
        // Flip one byte inside a specific (valid) line: everything
        // before that line survives, nothing after it does — the
        // torn-tail contract, mid-file.
        let (path, mut bytes) = journal_bytes(n, "prefix");
        let line = line.min(n - 1) as usize;
        let starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let line_start = starts[line];
        let line_len = starts[line + 1] - line_start - 1;
        bytes[line_start + offset % line_len] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write damaged");
        match replay(&path) {
            Ok(replayed) => {
                // The flip may corrupt the line (truncating there) or
                // land on a byte whose flip keeps frame + crc parseable
                // only if it missed the payload — either way the result
                // is a prefix.
                prop_assert!(replayed.records.len() <= n as usize);
                for (i, rec) in replayed.records.iter().enumerate() {
                    prop_assert_eq!(rec.id, i as u64);
                }
                if replayed.truncated {
                    prop_assert!(replayed.records.len() <= line);
                }
            }
            Err(CampaignError::JournalCorrupt { .. }) => {
                prop_assert_eq!(line, 0);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_after_damage_appends_after_the_salvaged_prefix(
        n in 1u64..12,
        k in 1u64..6,
        flip in any::<bool>(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        // Damage the journal as a crash or a bad disk does (cut its
        // tail off, or flip one bit), then resume as `campaign resume`
        // does: replay, then append k records for the lost units after
        // the valid prefix.
        let (path, mut bytes) = journal_bytes(n, "resume");
        let len = bytes.len();
        if flip {
            bytes[at % len] ^= 1 << bit;
        } else {
            bytes.truncate(at % len);
        }
        std::fs::write(&path, &bytes).expect("write damaged");
        let salvaged = match replay(&path) {
            Ok(salvaged) => salvaged,
            Err(CampaignError::JournalCorrupt { .. }) => {
                // First-line damage: nothing to resume.
                std::fs::remove_file(&path).ok();
                return Ok(());
            }
            Err(other) => panic!("unexpected error class: {other}"),
        };
        let fresh: Vec<JournalRecord> = (n..n + k).map(record).collect();
        let mut writer =
            JournalWriter::append_to(&path, salvaged.valid_len, 4).expect("open for resume");
        for rec in &fresh {
            writer.append(rec).expect("append");
        }
        writer.sync().expect("sync");
        drop(writer);
        let resumed = replay(&path).expect("the resumed journal replays");
        let mut want = salvaged.records;
        want.extend(fresh);
        prop_assert_eq!(&resumed.records, &want);
        prop_assert!(!resumed.truncated, "the damaged tail survived the resume");
        std::fs::remove_file(&path).ok();
    }
}
