//! The on-disk artifact store (`.saint/delta/`).
//!
//! One file per artifact, named by its content key:
//!
//! ```text
//! group-<key:016x>.sdlt     per-group analysis slice
//! app-<key:016x>.sdlt       whole-app merged report (fast path)
//! ```
//!
//! Layout (everything little-endian):
//!
//! ```text
//! offset  size  field       encoding
//! 0       4     magic       b"SDLT"
//! 4       4     version     u32 — store format
//! 8       4     schema      u32 — report schema the artifact carries
//! 12      8     checksum    u64 — FNV-1a over bytes[20..]
//! 20      …     payload     serde_json of the artifact
//! ```
//!
//! A group payload is a [`GroupArtifact`]: the group's
//! [`FamilyParts`] exactly as the pipeline produced them, and its meter
//! ledger, where each entry that names a framework class or method is
//! an integer pair — its id in the [`FrameworkDictionary`] and its
//! byte charge — and only the group's own names (and names the
//! framework database does not know) are spelled out. The dictionary
//! is rebuilt from the framework, whose fingerprint every content key
//! folds in, so no dictionary is stored. An app payload is the merged
//! [`Report`] itself.
//!
//! Format history:
//!
//! - 1: initial layout (16-byte header, three AMD families);
//! - 2: report-schema field added to the header, group artifacts
//!   gained the DSD family's usage sites;
//! - 3: framework ledger entries stored as dictionary ids, empty
//!   per-root finding buckets dropped (report schema unchanged at 2);
//! - 4: group findings nest as one [`FamilyParts`], and an app payload
//!   is the bare report (report schema unchanged at 2).
//!
//! Writes are atomic (unique temp file + rename), so a crashed writer
//! leaves either the old artifact or none — never a torn one. Reads
//! validate magic, version, schema and checksum before touching the
//! payload; every failure is a typed [`DeltaError`] the scanner
//! degrades to a cache miss, and so is a ledger id outside the
//! dictionary, which [`GroupArtifact::expand`] reports as
//! [`DeltaError::Malformed`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::{ClassName, MethodRef};
use saintdroid::{FamilyParts, Report, ScanParts, REPORT_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};

use crate::dictionary::FrameworkDictionary;
use crate::error::DeltaError;

/// Store format version; bumped on any layout or artifact-shape
/// change. Folded into content keys *and* checked in the header, so a
/// version bump invalidates every existing artifact. The module docs
/// give the history.
pub const FORMAT_VERSION: u32 = 4;

const MAGIC: [u8; 4] = *b"SDLT";
const HEADER_LEN: usize = 20;

/// The persisted analysis slice of one class group: the
/// [`saintdroid::ScanParts`] of the group's projected sub-APK with its
/// framework ledger entries compacted to [`FrameworkDictionary`] ids,
/// plus the member list for accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupArtifact {
    /// Member classes, sorted (for counters and sanity checks).
    pub members: Vec<ClassName>,
    /// The group's detector outputs, as the pipeline produced them.
    pub families: FamilyParts,
    /// CLVM load-table entries of dictionary classes: class id and
    /// byte charge (`None` = failed lookup), sorted by id.
    pub framework_loaded: Vec<(u32, Option<u32>)>,
    /// Explored dictionary methods: method id and artifact byte
    /// charge, sorted by id.
    pub framework_methods: Vec<(u32, u32)>,
    /// The rest of the load table (the group's own classes), by name,
    /// sorted.
    pub loaded: Vec<(ClassName, Option<usize>)>,
    /// The rest of the explored methods (the group's own), by name,
    /// sorted.
    pub methods: Vec<(MethodRef, usize)>,
}

impl GroupArtifact {
    /// Compacts one group's pipeline outputs: the family parts are copied
    /// whole, and each ledger entry whose name is in `dict` (and whose
    /// charge fits a `u32`) becomes an id plus its charge. Ledger lists
    /// are sorted, so an artifact's bytes are a function of its content.
    #[must_use]
    pub fn compact(members: Vec<ClassName>, parts: &ScanParts, dict: &FrameworkDictionary) -> Self {
        let mut art = GroupArtifact {
            members,
            families: parts.families.clone(),
            framework_loaded: Vec::new(),
            framework_methods: Vec::new(),
            loaded: Vec::new(),
            methods: Vec::new(),
        };
        for (class, charge) in &parts.loaded {
            match (dict.class_id(class), charge.map(u32::try_from).transpose()) {
                (Some(id), Ok(charge)) => art.framework_loaded.push((id, charge)),
                _ => art.loaded.push((class.clone(), *charge)),
            }
        }
        for (method, bytes) in &parts.methods {
            match (dict.method_id(method), u32::try_from(*bytes)) {
                (Some(id), Ok(bytes)) => art.framework_methods.push((id, bytes)),
                _ => art.methods.push((method.clone(), *bytes)),
            }
        }
        art.framework_loaded.sort_unstable_by_key(|e| e.0);
        art.framework_methods.sort_unstable_by_key(|e| e.0);
        art.loaded.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        art.methods.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Long-lived scanners memoize artifacts: hold no spare capacity.
        art.framework_loaded.shrink_to_fit();
        art.framework_methods.shrink_to_fit();
        art.loaded.shrink_to_fit();
        art.methods.shrink_to_fit();
        art
    }

    /// The group's pipeline outputs, ready for
    /// [`SaintDroid::assemble`](saintdroid::SaintDroid::assemble):
    /// dictionary ids expand back to names.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Malformed`] when a ledger id lies outside `dict`.
    pub fn expand(&self, dict: &FrameworkDictionary) -> Result<ScanParts, DeltaError> {
        let outside = |kind: &str, id: u32| {
            DeltaError::Malformed(format!(
                "framework {kind} id {id} is outside the framework dictionary"
            ))
        };
        let mut loaded = Vec::with_capacity(self.framework_loaded.len() + self.loaded.len());
        for &(id, charge) in &self.framework_loaded {
            let class = dict.class(id).ok_or_else(|| outside("class", id))?;
            loaded.push((class.clone(), charge.map(|c| c as usize)));
        }
        loaded.extend(self.loaded.iter().cloned());
        let mut methods = Vec::with_capacity(self.framework_methods.len() + self.methods.len());
        for &(id, bytes) in &self.framework_methods {
            let method = dict.method(id).ok_or_else(|| outside("method", id))?;
            methods.push((method.clone(), bytes as usize));
        }
        methods.extend(self.methods.iter().cloned());
        Ok(ScanParts {
            families: self.families.clone(),
            loaded,
            methods,
        })
    }
}

/// A directory of content-addressed artifacts.
#[derive(Debug, Clone)]
pub struct DeltaStore {
    root: PathBuf,
}

/// Distinguishes the two artifact kinds in file names.
#[derive(Clone, Copy)]
enum Kind {
    Group,
    App,
}

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Group => "group",
            Kind::App => "app",
        }
    }
}

fn encode<T: serde::Serialize>(artifact: &T) -> Result<String, DeltaError> {
    serde_json::to_string(artifact).map_err(|e| DeltaError::Malformed(e.to_string()))
}

fn decode<T: serde::Deserialize>(payload: &[u8]) -> Result<T, DeltaError> {
    let text = std::str::from_utf8(payload).map_err(|e| DeltaError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| DeltaError::Malformed(e.to_string()))
}

impl DeltaStore {
    /// Opens (without touching the filesystem) a store rooted at `root`
    /// — conventionally `.saint/delta/`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DeltaStore { root: root.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the artifact for `key`.
    fn path(&self, kind: Kind, key: u64) -> PathBuf {
        self.root.join(format!("{}-{key:016x}.sdlt", kind.prefix()))
    }

    /// Loads and validates the group artifact for `key`.
    pub fn load_group(&self, key: u64) -> Result<GroupArtifact, DeltaError> {
        let data = self.read_validated(Kind::Group, key)?;
        decode(&data[HEADER_LEN..])
    }

    /// Persists the group artifact for `key` atomically.
    pub fn save_group(&self, key: u64, artifact: &GroupArtifact) -> Result<(), DeltaError> {
        self.write_atomic(Kind::Group, key, encode(artifact)?.as_bytes())
    }

    /// Loads and validates the whole-app artifact for `key`: the merged
    /// report of a byte-identical prior scan (with `duration` zeroed —
    /// wall time is re-measured on replay).
    pub fn load_app(&self, key: u64) -> Result<Report, DeltaError> {
        let data = self.read_validated(Kind::App, key)?;
        decode(&data[HEADER_LEN..])
    }

    /// Persists the whole-app artifact for `key` atomically.
    pub fn save_app(&self, key: u64, report: &Report) -> Result<(), DeltaError> {
        self.write_atomic(Kind::App, key, encode(report)?.as_bytes())
    }

    /// Reads the artifact file and validates its header; returns the
    /// whole file so callers decode the payload slice without a copy.
    fn read_validated(&self, kind: Kind, key: u64) -> Result<Vec<u8>, DeltaError> {
        let data = fs::read(self.path(kind, key))?;
        if data.len() < HEADER_LEN {
            return Err(DeltaError::Truncated { len: data.len() });
        }
        if data[0..4] != MAGIC {
            return Err(DeltaError::BadMagic);
        }
        let mut v4 = [0u8; 4];
        v4.copy_from_slice(&data[4..8]);
        let version = u32::from_le_bytes(v4);
        if version != FORMAT_VERSION {
            return Err(DeltaError::VersionSkew {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        v4.copy_from_slice(&data[8..12]);
        let schema = u32::from_le_bytes(v4);
        if schema != REPORT_SCHEMA_VERSION {
            return Err(DeltaError::SchemaSkew {
                found: schema,
                expected: REPORT_SCHEMA_VERSION,
            });
        }
        let mut v8 = [0u8; 8];
        v8.copy_from_slice(&data[12..20]);
        let checksum = u64::from_le_bytes(v8);
        if fnv1a(&data[HEADER_LEN..], FNV_OFFSET) != checksum {
            return Err(DeltaError::ChecksumMismatch);
        }
        Ok(data)
    }

    fn write_atomic(&self, kind: Kind, key: u64, payload: &[u8]) -> Result<(), DeltaError> {
        fs::create_dir_all(&self.root)?;
        let mut data = Vec::with_capacity(HEADER_LEN + payload.len());
        data.extend_from_slice(&MAGIC);
        data.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        data.extend_from_slice(&REPORT_SCHEMA_VERSION.to_le_bytes());
        data.extend_from_slice(&fnv1a(payload, FNV_OFFSET).to_le_bytes());
        data.extend_from_slice(payload);
        // Unique temp name: pid + a process-wide counter, so concurrent
        // writers (daemon workers) never clobber each other's temp.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!(".tmp-{}-{seq}-{key:016x}", std::process::id()));
        fs::write(&tmp, &data)?;
        match fs::rename(&tmp, self.path(kind, key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group slice naming one framework class and method (compacted
    /// to ids) and the group's own class and method (kept by name).
    fn sample_parts() -> ScanParts {
        ScanParts {
            families: FamilyParts {
                declares_handler: true,
                ..FamilyParts::default()
            },
            loaded: vec![
                (ClassName::new("p.A"), Some(42)),
                (ClassName::new("android.app.Activity"), Some(900)),
                (ClassName::new("p.Gone"), None),
            ],
            methods: vec![
                (MethodRef::new("p.A", "go", "()V"), 7),
                (
                    MethodRef::new("android.app.Activity", "onCreate", "(Landroid/os/Bundle;)V"),
                    64,
                ),
            ],
        }
    }

    fn dictionary() -> FrameworkDictionary {
        FrameworkDictionary::new(&saint_adf::AndroidFramework::curated().database())
    }

    fn sample() -> GroupArtifact {
        GroupArtifact::compact(vec![ClassName::new("p.A")], &sample_parts(), &dictionary())
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn compaction_keeps_only_own_names_and_expands_back() {
        let art = sample();
        assert_eq!(art.framework_loaded.len(), 1);
        assert_eq!(art.framework_methods.len(), 1);
        assert_eq!(
            art.loaded,
            vec![
                (ClassName::new("p.A"), Some(42)),
                (ClassName::new("p.Gone"), None)
            ]
        );
        assert_eq!(art.methods, vec![(MethodRef::new("p.A", "go", "()V"), 7)]);
        let back = art.expand(&dictionary()).unwrap();
        let want = sample_parts();
        assert_eq!(sorted(back.loaded), sorted(want.loaded));
        assert_eq!(sorted(back.methods), sorted(want.methods));

        // An id outside the dictionary is malformed, on either side.
        let mut bad = art.clone();
        bad.framework_loaded[0].0 = u32::MAX;
        assert!(matches!(
            bad.expand(&dictionary()),
            Err(DeltaError::Malformed(_))
        ));
        let mut bad = art;
        bad.framework_methods[0].0 = u32::MAX;
        assert!(matches!(
            bad.expand(&dictionary()),
            Err(DeltaError::Malformed(_))
        ));
    }

    #[test]
    fn round_trips_group_artifacts() {
        let dir = std::env::temp_dir().join(format!("sdlt-store-{}", std::process::id()));
        let store = DeltaStore::new(&dir);
        store.save_group(0xabcd, &sample()).unwrap();
        let back = store.load_group(0xabcd).unwrap();
        assert_eq!(back.members, sample().members);
        assert_eq!(back.families, sample().families);
        assert_eq!(back.framework_loaded, sample().framework_loaded);
        assert_eq!(back.framework_methods, sample().framework_methods);
        assert_eq!(back.loaded, sample().loaded);
        assert_eq!(back.methods, sample().methods);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_artifact_is_io_not_found() {
        let store = DeltaStore::new(std::env::temp_dir().join("sdlt-none"));
        match store.load_group(1) {
            Err(DeltaError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_typed() {
        let dir = std::env::temp_dir().join(format!("sdlt-corrupt-{}", std::process::id()));
        let store = DeltaStore::new(&dir);
        store.save_group(7, &sample()).unwrap();
        let path = store.path(Kind::Group, 7);
        let mut data = std::fs::read(&path).unwrap();

        // Bit flip in the payload → checksum mismatch.
        let last = data.len() - 1;
        data[last] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            store.load_group(7),
            Err(DeltaError::ChecksumMismatch)
        ));

        // Version skew.
        data[last] ^= 0x40;
        data[4] = 99;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            store.load_group(7),
            Err(DeltaError::VersionSkew { found: 99, .. })
        ));

        // Report-schema skew (version restored, schema patched).
        data[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        data[8] = 99;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            store.load_group(7),
            Err(DeltaError::SchemaSkew { found: 99, .. })
        ));

        // Truncation below the header.
        std::fs::write(&path, &data[..10]).unwrap();
        assert!(matches!(
            store.load_group(7),
            Err(DeltaError::Truncated { len: 10 })
        ));

        // Wrong magic.
        std::fs::write(&path, b"NOPE000000000000000000000000").unwrap();
        assert!(matches!(store.load_group(7), Err(DeltaError::BadMagic)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_store_artifacts_are_typed_misses() {
        // An artifact written by an older store format must surface as a
        // typed version skew: a v1 artifact (16-byte header, pre-DSD
        // report schema) must never decode into a report silently
        // missing the DSD family; v2 group artifacts name framework
        // ledger entries, and v3 ones keep findings outside `families`.
        let dir = std::env::temp_dir().join(format!("sdlt-old-{}", std::process::id()));
        let store = DeltaStore::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let payload = br#"{"report":{}}"#;
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&fnv1a(payload, FNV_OFFSET).to_le_bytes());
        v1.extend_from_slice(payload);
        std::fs::write(store.path(Kind::App, 5), &v1).unwrap();
        assert!(matches!(
            store.load_app(5),
            Err(DeltaError::VersionSkew {
                found: 1,
                expected: FORMAT_VERSION
            })
        ));

        let groups: [(u32, &[u8]); 2] = [
            (2, br#"{"loaded":[["android.app.Activity",900]]}"#),
            (3, br#"{"invocation":[],"framework_loaded":[[0,900]]}"#),
        ];
        for (version, payload) in groups {
            let mut old = MAGIC.to_vec();
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&REPORT_SCHEMA_VERSION.to_le_bytes());
            old.extend_from_slice(&fnv1a(payload, FNV_OFFSET).to_le_bytes());
            old.extend_from_slice(payload);
            std::fs::write(store.path(Kind::Group, version.into()), &old).unwrap();
            match store.load_group(version.into()) {
                Err(DeltaError::VersionSkew { found, expected }) => {
                    assert_eq!((found, expected), (version, FORMAT_VERSION));
                }
                other => panic!("v{version} group artifact: expected a skew, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_format_tracks_report_schema() {
        // Coupling lint: whenever the report schema changes (a detector
        // family added, a kind's meaning changed), the store format
        // version must bump with it so pre-change artifacts invalidate
        // wholesale. The store format may also move on its own (format
        // 3 compacted the ledger and format 4 nested the family parts,
        // both at report schema 2). If this assertion
        // fails you changed one of the two: a report-schema bump needs a
        // store bump too; then move this pin, and the CI lint's, to the
        // new pair.
        assert_eq!(
            (FORMAT_VERSION, REPORT_SCHEMA_VERSION),
            (4, 2),
            "a report-schema change must bump the store format with it"
        );
    }
}
