//! Robustness property for the delta artifact store: no corrupted
//! `.sdlt` artifact — random bit flips, truncations, version skews, or
//! any combination — may panic a load or leak a wrong report. Direct
//! loads must fail with a typed [`DeltaError`]; a scan over a poisoned
//! store must silently degrade the damaged entries to cache misses and
//! still produce a report **byte-identical** to a full scan. Payload
//! truncations *with a re-sealed checksum* exercise the JSON decode
//! layer behind the checksum gate, not just the gate, and a ledger id
//! outside the framework dictionary exercises the layer behind that.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::collection::vec;
use proptest::prelude::*;
use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{generate_lineage, LineageConfig};
use saint_delta::{DeltaError, DeltaScanner, FrameworkDictionary};
use saint_frozen::{fnv1a, FNV_OFFSET};
use saintdroid::SaintDroid;

fn tool() -> &'static SaintDroid {
    static TOOL: OnceLock<SaintDroid> = OnceLock::new();
    TOOL.get_or_init(|| {
        SaintDroid::new(Arc::new(
            AndroidFramework::with_scale(&SynthConfig::small()),
        ))
    })
}

/// The fixture app and its canonical full-scan report, built once.
fn fixture() -> &'static (saint_ir::Apk, String) {
    static ONCE: OnceLock<(saint_ir::Apk, String)> = OnceLock::new();
    ONCE.get_or_init(|| {
        let lineage = generate_lineage(&LineageConfig::small());
        let apk = lineage[1].1.clone();
        let mut report = tool().run_with_jobs(&apk, 1);
        report.duration = std::time::Duration::ZERO;
        let json = serde_json::to_string(&report).expect("serialize report");
        (apk, json)
    })
}

/// The artifact header (see `saint_delta::store`): the FNV-1a checksum
/// sits at bytes 12..20 and covers the payload from byte 20.
const CHECKSUM: std::ops::Range<usize> = 12..20;
const PAYLOAD: usize = 20;

/// Re-computes the header checksum over the (edited) payload.
fn reseal(bytes: &mut [u8]) {
    let sum = fnv1a(&bytes[PAYLOAD..], FNV_OFFSET);
    bytes[CHECKSUM].copy_from_slice(&sum.to_le_bytes());
}

fn fresh_store_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "saint-corrupt-delta-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[derive(Debug, Clone)]
struct Corruption {
    /// Which store files the corruption hits (modulo file count).
    victims: Vec<usize>,
    /// `(position, bit)` pairs, positions modulo file length.
    flips: Vec<(usize, u8)>,
    /// Keep-length, applied modulo `len + 1`.
    truncate_to: Option<usize>,
    /// Overwrite the header version with this value.
    skew_version: Option<u32>,
    /// Instead of the above: truncate the *payload* and re-seal the
    /// header checksum, pushing checksum-valid damage past the gate
    /// into the JSON decoder. (Re-sealing after random bit flips is
    /// deliberately not modeled — a flipped digit re-sealed is
    /// indistinguishable from a legitimate artifact, which is beyond
    /// any checksum's threat model.)
    fix_checksum: bool,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    (
        vec(any::<usize>(), 1..3),
        vec((any::<usize>(), 0u8..8), 0..6),
        proptest::option::of(any::<usize>()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
    )
        .prop_map(
            |(victims, flips, truncate_to, skew_version, fix_checksum)| Corruption {
                victims,
                flips,
                truncate_to,
                skew_version,
                fix_checksum,
            },
        )
}

fn corrupt_file(path: &std::path::Path, spec: &Corruption) {
    let mut bytes = std::fs::read(path).expect("read artifact");
    if spec.fix_checksum {
        // Checksum-valid payload truncation. Every artifact payload is
        // a JSON object, so any strict prefix is invalid JSON — the
        // decoder behind the checksum gate must fail typed, not panic.
        if bytes.len() > PAYLOAD {
            let payload_len = bytes.len() - PAYLOAD;
            let keep = spec.truncate_to.unwrap_or(0) % payload_len;
            bytes.truncate(PAYLOAD + keep);
            reseal(&mut bytes);
        }
    } else {
        if let Some(keep) = spec.truncate_to {
            bytes.truncate(keep % (bytes.len() + 1));
        }
        for &(pos, bit) in &spec.flips {
            if !bytes.is_empty() {
                let at = pos % bytes.len();
                bytes[at] ^= 1 << bit;
            }
        }
        if let Some(v) = spec.skew_version {
            if bytes.len() >= 8 {
                bytes[4..8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    std::fs::write(path, &bytes).expect("write corrupted artifact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corrupted_stores_never_panic_or_change_reports(spec in arb_corruption()) {
        let (apk, want) = fixture();
        let dir = fresh_store_dir();
        let scanner = DeltaScanner::new(&dir);

        // Populate the store, then vandalize a selection of artifacts.
        let sapk = saint_ir::codec::encode_apk(apk);
        let _ = scanner.scan_encoded(tool(), &sapk, apk, 1);
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .expect("read store dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        prop_assert!(!files.is_empty(), "store not populated");
        for &v in &spec.victims {
            corrupt_file(&files[v % files.len()], &spec);
        }

        // A rescan over the poisoned store must neither unwind nor
        // emit anything but the canonical report: damaged artifacts
        // degrade to misses and get reanalyzed. A *fresh* scanner
        // models a new process over the vandalized store — and keeps
        // the populating scanner's in-process replay memo from serving
        // the rescan before it ever touches disk.
        let rescanner = DeltaScanner::new(&dir);
        let outcome = catch_unwind(AssertUnwindSafe(|| rescanner.scan_encoded(tool(), &sapk, apk, 1)))
            .map_err(|_| "scan panicked on a corrupted store".to_string())?;
        let (mut report, stats) = outcome;
        report.duration = std::time::Duration::ZERO;
        let got = serde_json::to_string(&report).expect("serialize report");
        prop_assert_eq!(&got, want, "corrupted store changed the report");
        prop_assert_eq!(
            stats.hits + stats.misses,
            stats.classes_seen,
            "counter conservation broke under corruption"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A populated store and the key and path of one of its group
/// artifacts.
fn populated_group() -> (DeltaScanner, std::path::PathBuf, u64, std::path::PathBuf) {
    let (apk, _) = fixture();
    let dir = fresh_store_dir();
    let scanner = DeltaScanner::new(&dir);
    let _ = scanner.scan_encoded(tool(), &saint_ir::codec::encode_apk(apk), apk, 1);
    let path = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("group-"))
        })
        .expect("a group artifact exists");
    let key = u64::from_str_radix(
        path.file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.strip_prefix("group-"))
            .expect("key in file name"),
        16,
    )
    .expect("hex key");
    (scanner, dir, key, path)
}

/// Direct store loads surface each corruption class as its typed
/// error: skew → `VersionSkew` or `SchemaSkew`, truncation →
/// `Truncated`, payload damage → `ChecksumMismatch`, header damage →
/// `BadMagic`, and a re-sealed truncated payload → `Malformed`.
#[test]
fn typed_errors_name_the_corruption() {
    let (scanner, dir, key, path) = populated_group();
    let pristine = std::fs::read(&path).expect("read artifact");
    let store = scanner.store();
    assert!(store.load_group(key).is_ok(), "the pristine artifact loads");

    let mut skewed = pristine.clone();
    skewed[4..8].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, &skewed).unwrap();
    assert!(matches!(
        store.load_group(key),
        Err(DeltaError::VersionSkew { found: 7, .. })
    ));

    let mut schema_skewed = pristine.clone();
    schema_skewed[8..12].copy_from_slice(&9u32.to_le_bytes());
    std::fs::write(&path, &schema_skewed).unwrap();
    assert!(matches!(
        store.load_group(key),
        Err(DeltaError::SchemaSkew { found: 9, .. })
    ));

    std::fs::write(&path, &pristine[..12]).unwrap();
    assert!(matches!(
        store.load_group(key),
        Err(DeltaError::Truncated { len: 12 })
    ));

    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        store.load_group(key),
        Err(DeltaError::ChecksumMismatch)
    ));

    let mut resealed = pristine.clone();
    resealed.truncate(PAYLOAD + (pristine.len() - PAYLOAD) / 2);
    reseal(&mut resealed);
    std::fs::write(&path, &resealed).unwrap();
    assert!(matches!(
        store.load_group(key),
        Err(DeltaError::Malformed(_))
    ));

    let mut unmagiced = pristine;
    unmagiced[0] = b'X';
    std::fs::write(&path, &unmagiced).unwrap();
    assert!(matches!(store.load_group(key), Err(DeltaError::BadMagic)));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A group artifact whose ledger names an id past the end of the
/// framework dictionary is checksum-valid and decodes, but expanding it
/// fails typed (`Malformed`); a scan over it treats it as a miss and
/// still returns the full-scan report.
#[test]
fn ids_outside_the_dictionary_are_malformed_misses() {
    let (apk, want) = fixture();
    let (scanner, dir, key, _) = populated_group();
    let store = scanner.store();
    let dict = FrameworkDictionary::new(&tool().arm().database());
    let mut art = store.load_group(key).expect("pristine artifact loads");
    assert!(art.expand(&dict).is_ok());
    art.framework_methods.push((u32::MAX, 1));
    store.save_group(key, &art).expect("write forged artifact");
    assert!(matches!(
        store.load_group(key).and_then(|art| art.expand(&dict)),
        Err(DeltaError::Malformed(_))
    ));

    // Without the app artifacts the rescan has to splice its groups.
    for entry in std::fs::read_dir(&dir).expect("read store dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("app-") {
            std::fs::remove_file(entry.path()).expect("remove app artifact");
        }
    }
    let rescanner = DeltaScanner::new(&dir);
    let sapk = saint_ir::codec::encode_apk(apk);
    let (mut report, stats) = rescanner.scan_encoded(tool(), &sapk, apk, 1);
    assert!(!stats.app_hit && stats.misses > 0 && stats.hits > 0);
    report.duration = std::time::Duration::ZERO;
    assert_eq!(&serde_json::to_string(&report).expect("serialize"), want);
    let _ = std::fs::remove_dir_all(&dir);
}
