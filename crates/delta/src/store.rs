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
//! Writes are atomic (unique temp file + rename), so a crashed writer
//! leaves either the old artifact or none — never a torn one. Reads
//! validate magic, version, and checksum before touching the payload;
//! every failure is a typed [`DeltaError`] the scanner degrades to a
//! cache miss.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::{ClassName, MethodRef};
use saintdroid::amd::declared_sdk::SdkUsage;
use saintdroid::amd::permission::DangerousUsage;
use saintdroid::{Mismatch, Report, ScanParts, REPORT_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};

use crate::error::DeltaError;

/// Store format version; bumped on any layout or artifact-shape
/// change. Folded into content keys *and* checked in the header, so a
/// version bump invalidates every existing artifact.
///
/// History: 1 = initial layout (16-byte header, three AMD families);
/// 2 = report-schema field added to the header, `sdk_usages` added to
/// group artifacts (DSD family).
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"SDLT";
const HEADER_LEN: usize = 20;

/// The persisted analysis slice of one class group — exactly the
/// [`saintdroid::ScanParts`] of the group's projected sub-APK, plus
/// the member list for accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupArtifact {
    /// Member classes, sorted (for counters and sanity checks).
    pub members: Vec<ClassName>,
    /// Invocation findings bucketed per context root, sorted by root.
    pub invocation: Vec<(MethodRef, Vec<Mismatch>)>,
    /// Callback findings, in the group's class-iteration order.
    pub callback: Vec<Mismatch>,
    /// Raw dangerous-permission usages of the group's methods.
    pub usages: Vec<DangerousUsage>,
    /// Whether the group declares `onRequestPermissionsResult`.
    pub declares_handler: bool,
    /// Raw declared-SDK usage sites of the group's methods (empty when
    /// the scanning tool's detector set excludes the DSD family).
    pub sdk_usages: Vec<SdkUsage>,
    /// CLVM load-table entries with byte charges (`None` = failed
    /// lookup), sorted by name — the class half of the reconstructed
    /// meter.
    pub loaded: Vec<(ClassName, Option<usize>)>,
    /// Explored methods with artifact byte charges, sorted — the method
    /// half.
    pub methods: Vec<(MethodRef, usize)>,
}

impl GroupArtifact {
    /// Wraps one group's pipeline outputs with its member list. The
    /// meter ledger is sorted by key so an artifact's bytes are a
    /// function of its content.
    #[must_use]
    pub fn new(members: Vec<ClassName>, mut parts: ScanParts) -> Self {
        parts.loaded.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        parts.methods.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        GroupArtifact {
            members,
            invocation: parts.invocation,
            callback: parts.callback,
            usages: parts.usages,
            declares_handler: parts.declares_handler,
            sdk_usages: parts.sdk_usages,
            loaded: parts.loaded,
            methods: parts.methods,
        }
    }

    /// The group's pipeline outputs, ready for
    /// [`SaintDroid::assemble`](saintdroid::SaintDroid::assemble).
    #[must_use]
    pub fn into_parts(self) -> ScanParts {
        ScanParts {
            invocation: self.invocation,
            callback: self.callback,
            usages: self.usages,
            declares_handler: self.declares_handler,
            sdk_usages: self.sdk_usages,
            loaded: self.loaded,
            methods: self.methods,
        }
    }
}

/// The persisted whole-app fast path: the fully merged report of a
/// byte-identical prior scan (with `duration` zeroed — wall time is
/// re-measured on replay).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppArtifact {
    /// The merged report.
    pub report: Report,
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

    /// Loads and validates the whole-app artifact for `key`.
    pub fn load_app(&self, key: u64) -> Result<AppArtifact, DeltaError> {
        let data = self.read_validated(Kind::App, key)?;
        decode(&data[HEADER_LEN..])
    }

    /// Persists the whole-app artifact for `key` atomically.
    pub fn save_app(&self, key: u64, artifact: &AppArtifact) -> Result<(), DeltaError> {
        self.write_atomic(Kind::App, key, encode(artifact)?.as_bytes())
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

    fn sample() -> GroupArtifact {
        GroupArtifact {
            members: vec![ClassName::new("p.A")],
            invocation: Vec::new(),
            callback: Vec::new(),
            usages: Vec::new(),
            declares_handler: false,
            sdk_usages: Vec::new(),
            loaded: vec![
                (ClassName::new("p.A"), Some(42)),
                (ClassName::new("p.Gone"), None),
            ],
            methods: vec![(MethodRef::new("p.A", "go", "()V"), 7)],
        }
    }

    #[test]
    fn round_trips_group_artifacts() {
        let dir = std::env::temp_dir().join(format!("sdlt-store-{}", std::process::id()));
        let store = DeltaStore::new(&dir);
        store.save_group(0xabcd, &sample()).unwrap();
        let back = store.load_group(0xabcd).unwrap();
        assert_eq!(back.members, sample().members);
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
    fn pre_dsd_store_artifact_is_a_typed_miss() {
        // Regression for the delta-key bugfix: an artifact written by
        // the v1 store (16-byte header, pre-DSD report schema) must
        // surface as a typed version skew — never decode into a report
        // silently missing the DSD family.
        let dir = std::env::temp_dir().join(format!("sdlt-v1-{}", std::process::id()));
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_format_tracks_report_schema() {
        // Coupling lint: whenever the report schema changes (a detector
        // family added, a kind's meaning changed), the store format
        // version must bump with it so pre-change artifacts invalidate
        // wholesale. If this assertion fails you changed one without
        // the other — bump FORMAT_VERSION and update this pin.
        assert_eq!(
            (FORMAT_VERSION, REPORT_SCHEMA_VERSION),
            (2, 2),
            "store format and report schema must move together"
        );
    }
}
