//! # saint-frozen — zero-copy frozen artifacts
//!
//! Every daemon start and every cold scan used to re-mine the ARM API
//! database, rebuild the permission map, and re-materialize framework
//! class bodies from the spec. This crate lowers all three — plus whole
//! SAPK corpora — into versioned, checksummed, offset-table binary
//! images (`SFRZ`) that readers `mmap` and query **in place**:
//!
//! - [`freeze_framework`] / [`FrozenFramework`]: the offline compiler
//!   and the attach path for the framework model. Attach is a header
//!   verify plus one linear table decode; class bodies stay on disk
//!   behind a binary-searched offset table and surface as zero-copy
//!   `&[u8]` SAPK blobs.
//! - [`freeze_corpus`] / [`FrozenCorpus`]: one image per corpus,
//!   per-package offsets, zero-copy container slices for scan workers.
//! - [`load_or_freeze`]: the boot policy — attach an existing image if
//!   its version, checksum, and spec fingerprint all match, otherwise
//!   parse-and-freeze so the *next* start is instant.
//!
//! `unsafe` lives only in [`mmap`] (two syscalls behind a safe `&[u8]`
//! view with an owned-buffer fallback); every other byte access is
//! bounds-checked and fails as a typed [`FrozenError`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod corpus;
mod error;
mod format;
mod framework;
#[allow(unsafe_code)]
mod mmap;

pub use corpus::{freeze_apks, freeze_corpus, FrozenCorpus};
pub use error::FrozenError;
pub use format::{Cursor, Image, FORMAT_VERSION, KIND_CORPUS, KIND_FRAMEWORK, MAGIC};
pub use framework::{freeze_framework, FrozenClassSource, FrozenFramework};
pub use mmap::MappedBytes;
/// The hash primitives (`fnv1a` lives in `saint-ir`, the spec
/// fingerprint in `saint-adf`, which memoizes it per framework);
/// re-exported here, where images are checksummed.
pub use saint_adf::{fnv1a, spec_fingerprint, FNV_OFFSET};

use std::path::Path;
use std::sync::Arc;

use saint_adf::AndroidFramework;

/// How [`load_or_freeze`] obtained its image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootSource {
    /// A valid image existed and was attached directly — the warm path.
    Attached,
    /// No usable image existed; the framework was parsed (mined) and a
    /// fresh image was written for next time.
    Compiled,
}

/// Attaches the frozen framework image at `path`, or — when the file is
/// missing, stale (spec fingerprint mismatch), version-skewed, or
/// corrupt — compiles one from `framework`, writes it, and attaches
/// that. The parse-and-freeze fallback means the first run pays the
/// mining cost exactly once per spec.
///
/// # Errors
///
/// Only filesystem failures surface; any *content* problem with an
/// existing image is handled by recompiling.
pub fn load_or_freeze(
    path: &Path,
    framework: &AndroidFramework,
) -> Result<(Arc<FrozenFramework>, BootSource), FrozenError> {
    if path.exists() {
        if let Ok(frozen) = FrozenFramework::open(path) {
            if frozen.verify_spec(framework.spec()).is_ok() {
                return Ok((Arc::new(frozen), BootSource::Attached));
            }
        }
    }
    let bytes = freeze_framework(framework);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // Write-then-rename so a concurrent reader never sees a torn image.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    let frozen = FrozenFramework::open(path)?;
    Ok((Arc::new(frozen), BootSource::Compiled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_boot_compiles_second_boot_attaches() {
        let dir = std::env::temp_dir().join(format!("saint-frozen-boot-{}", std::process::id()));
        let path = dir.join("framework.sfrz");
        let fw = AndroidFramework::curated();
        let (a, src_a) = load_or_freeze(&path, &fw).unwrap();
        assert_eq!(src_a, BootSource::Compiled);
        let (b, src_b) = load_or_freeze(&path, &fw).unwrap();
        assert_eq!(src_b, BootSource::Attached);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_image_is_recompiled() {
        let dir = std::env::temp_dir().join(format!("saint-frozen-stale-{}", std::process::id()));
        let path = dir.join("framework.sfrz");
        let other = AndroidFramework::with_scale(&saint_adf::SynthConfig::small());
        let (_, first) = load_or_freeze(&path, &other).unwrap();
        assert_eq!(first, BootSource::Compiled);
        // Same path, different spec: the old image must be refused and
        // replaced, not served.
        let fw = AndroidFramework::curated();
        let (frozen, second) = load_or_freeze(&path, &fw).unwrap();
        assert_eq!(second, BootSource::Compiled);
        assert!(frozen.verify_spec(fw.spec()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_recompiled() {
        let dir = std::env::temp_dir().join(format!("saint-frozen-corrupt-{}", std::process::id()));
        let path = dir.join("framework.sfrz");
        let fw = AndroidFramework::curated();
        let _ = load_or_freeze(&path, &fw).unwrap();
        // Flip a payload byte: checksum now fails.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (frozen, source) = load_or_freeze(&path, &fw).unwrap();
        assert_eq!(source, BootSource::Compiled);
        assert!(frozen.verify_spec(fw.spec()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
