//! Robustness property for the frozen artifact format: no corrupted
//! `.sfrz` image — random bit flips, truncations, or both, with or
//! without a recomputed checksum — may panic the attach path or any
//! in-place read. Every failure must be a typed [`FrozenError`] whose
//! byte offset (when it names one) points inside the image, and an
//! image that still attaches must serve every query (`database`,
//! `permission_map`, class iteration, per-package decode) without
//! unwinding. Flip positions are biased toward the header and section
//! table — the region every read is bounds-checked against — and the
//! `fix_checksum` cases re-seal the header checksum after corrupting
//! the payload, so the structural validators behind the checksum gate
//! get fuzzed too, not just the gate itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_frozen::{
    fnv1a, freeze_apks, freeze_framework, FrozenCorpus, FrozenError, FrozenFramework, FNV_OFFSET,
};
use saint_ir::codec;

/// Pristine images to corrupt, built once: framework synthesis and
/// corpus generation dominate the per-case cost otherwise.
fn pristine() -> &'static (Vec<u8>, Vec<u8>) {
    static IMAGES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let fw = AndroidFramework::with_scale(&SynthConfig::small());
        let framework_image = freeze_framework(&fw);
        let mut cfg = RealWorldConfig::small();
        cfg.apps = 4;
        let corpus = RealWorldCorpus::new(cfg);
        let apks: Vec<saint_ir::Apk> = (0..corpus.len()).map(|i| corpus.get(i).apk).collect();
        let corpus_image = freeze_apks(&apks);
        (framework_image, corpus_image)
    })
}

#[derive(Debug, Clone)]
struct Corruption {
    /// `false` → framework image, `true` → corpus image.
    corpus: bool,
    /// `(position, bit, header_biased)` triples. Biased positions are
    /// taken modulo 256 — the header plus section table plus the first
    /// payload bytes, where every bounds check lives; unbiased ones
    /// modulo the full image length.
    flips: Vec<(usize, u8, bool)>,
    /// Keep-length as a raw value, applied modulo `len + 1`.
    truncate_to: Option<usize>,
    /// Re-seal the header checksum after corrupting, so the flip is
    /// exercised against the structural validators instead of being
    /// swallowed by the `BadChecksum` gate.
    fix_checksum: bool,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    (
        any::<bool>(),
        vec((any::<usize>(), 0u8..8, any::<bool>()), 0..8),
        proptest::option::of(any::<usize>()),
        any::<bool>(),
    )
        .prop_map(|(corpus, flips, truncate_to, fix_checksum)| Corruption {
            corpus,
            flips,
            truncate_to,
            fix_checksum,
        })
}

fn corrupted_bytes(spec: &Corruption) -> Vec<u8> {
    let (framework_image, corpus_image) = pristine();
    let mut bytes = if spec.corpus {
        corpus_image.clone()
    } else {
        framework_image.clone()
    };
    if let Some(keep) = spec.truncate_to {
        bytes.truncate(keep % (bytes.len() + 1));
    }
    for &(pos, bit, biased) in &spec.flips {
        if !bytes.is_empty() {
            let span = if biased {
                bytes.len().min(256)
            } else {
                bytes.len()
            };
            bytes[pos % span] ^= 1 << bit;
        }
    }
    if spec.fix_checksum && bytes.len() >= 32 {
        let sum = fnv1a(&bytes[32..], FNV_OFFSET);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }
    bytes
}

/// A typed error is fine; its offset, when present, must point into
/// the image that produced it.
fn check_error(err: &FrozenError, len: usize) -> Result<(), String> {
    if let Some(offset) = err.offset() {
        prop_assert!(offset <= len, "offset {offset} beyond image of {len} bytes");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_images_never_panic_attach_or_reads(spec in arb_corruption()) {
        let bytes = corrupted_bytes(&spec);
        let len = bytes.len();

        if spec.corpus {
            let attached = catch_unwind(AssertUnwindSafe(|| FrozenCorpus::from_bytes(bytes)))
                .map_err(|_| "FrozenCorpus::from_bytes panicked on corrupted input".to_string())?;
            match attached {
                Err(e) => check_error(&e, len)?,
                Ok(corpus) => {
                    // Attach validated the index, so every read must
                    // answer — `Ok` or typed `Err`, never an unwind.
                    let reads = catch_unwind(AssertUnwindSafe(|| {
                        let mut errors = Vec::new();
                        for i in 0..corpus.len() {
                            if let Err(e) = corpus.package(i) {
                                errors.push(e);
                            }
                            if let Err(e) = corpus.decode(i) {
                                errors.push(e);
                            }
                        }
                        errors
                    }))
                    .map_err(|_| "a corpus read panicked on an attached image".to_string())?;
                    for e in &reads {
                        check_error(e, len)?;
                    }
                }
            }
        } else {
            let attached = catch_unwind(AssertUnwindSafe(|| FrozenFramework::from_bytes(bytes)))
                .map_err(|_| "FrozenFramework attach panicked on corrupted input".to_string())?;
            match attached {
                Err(e) => check_error(&e, len)?,
                Ok(fw) => {
                    let reads = catch_unwind(AssertUnwindSafe(|| {
                        let mut errors = Vec::new();
                        if let Err(e) = fw.database() {
                            errors.push(e);
                        }
                        if let Err(e) = fw.permission_map() {
                            errors.push(e);
                        }
                        // Walk every class entry and decode every
                        // blob: the zero-copy read surface the
                        // engine preload and class source live on.
                        let walk = fw.for_each_class(|_, _, _, blob| {
                            if let Err(e) = codec::decode_class(blob) {
                                errors.push(FrozenError::Codec(e));
                            }
                        });
                        if let Err(e) = walk {
                            errors.push(e);
                        }
                        // The lazy-boot query surface on top of it.
                        if let Err(e) = fw.knows_class("android.app.Activity") {
                            errors.push(e);
                        }
                        errors
                    }))
                    .map_err(|_| "a framework read panicked".to_string())?;
                    for e in &reads {
                        check_error(e, len)?;
                    }
                }
            }
        }
    }
}
