//! Content addressing for the incremental layer.
//!
//! Everything is the repo's standard FNV-1a 64-bit scheme
//! ([`saint_frozen::fnv1a`]). A cached artifact is valid iff its key
//! matches, and the key folds in every input the analysis of a slice
//! can observe:
//!
//! * the store format version (layout changes invalidate wholesale);
//! * the report schema version and the tool's enabled detector set —
//!   an artifact scanned by three families must never be replayed as
//!   the verdict of four (it would splice reports silently missing the
//!   new family's findings);
//! * the framework model fingerprint ([`saint_frozen::spec_fingerprint`],
//!   read from the framework's once-per-framework memo);
//! * the exploration policy (`ExploreConfig`, all of it via its serde
//!   encoding — e.g. an ablation build must not reuse a default-policy
//!   artifact);
//! * the app manifest (supported level range, permissions, target —
//!   all of it, via the canonical serde encoding);
//! * the member classes: per-dex placement and canonical class bytes.
//!
//! A group key folds the last two explicitly; the whole-app key folds
//! the app's canonical container bytes, which carry both.
//!
//! Deliberately *excluded*: `app_jobs` and cache attachments — reports
//! are parity-tested to be identical across those, so artifacts are
//! shared across them.

use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::{codec, ClassDef, Manifest};
use saintdroid::SaintDroid;

use crate::store::FORMAT_VERSION;

/// Fingerprint of one class: FNV-1a over its canonical binary encoding
/// (the same bytes the frozen corpus format stores).
#[must_use]
pub fn class_fingerprint(class: &ClassDef) -> u64 {
    fnv1a(&codec::encode_class(class), FNV_OFFSET)
}

/// Fingerprint of everything scan-relevant *outside* the app payload:
/// store format, report schema, enabled detector set, framework model,
/// exploration policy (its serde encoding, like the manifest's).
#[must_use]
pub fn context_fingerprint(tool: &SaintDroid) -> u64 {
    let mut h = fnv1a(&FORMAT_VERSION.to_le_bytes(), FNV_OFFSET);
    // An artifact's verdict is only complete relative to the mismatch
    // taxonomy it was scanned under (schema) and the families the tool
    // actually ran (detector set); folding both makes enabling,
    // disabling, or adding a detector a typed cache miss instead of a
    // wrong-report splice.
    h = fnv1a(&saintdroid::REPORT_SCHEMA_VERSION.to_le_bytes(), h);
    h = fnv1a(&[tool.detectors().bits()], h);
    h = fnv1a(&tool.arm().fingerprint().to_le_bytes(), h);
    let policy = serde_json::to_string(tool.config()).unwrap_or_default();
    fnv1a(policy.as_bytes(), h)
}

/// Fingerprint of the manifest via its canonical serde encoding.
#[must_use]
pub fn manifest_fingerprint(manifest: &Manifest) -> u64 {
    let text = serde_json::to_string(manifest).unwrap_or_default();
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

/// Key of one analysis group. `members` must come in a deterministic
/// order (the group builder emits them sorted by name); each entry is
/// `(dex_slot, class)`. A member folds in its dex slot (0 = primary,
/// i+1 = secondary `i` — placement changes analysis: only primary
/// methods are exploration roots), its name, and its content
/// fingerprint.
#[must_use]
pub fn group_key(context: u64, manifest: u64, members: &[(u32, &ClassDef)]) -> u64 {
    let mut h = fnv1a(&context.to_le_bytes(), FNV_OFFSET);
    h = fnv1a(&manifest.to_le_bytes(), h);
    for (slot, class) in members {
        h = fnv1a(&slot.to_le_bytes(), h);
        h = fnv1a(class.name.as_str().as_bytes(), h);
        h = fnv1a(&class_fingerprint(class).to_le_bytes(), h);
    }
    h
}

/// Whole-app key: one sequential FNV pass over the app's encoded
/// `SAPK` container bytes. The container encoding is canonical, so
/// byte-identical containers decode to identical apps — an app whose
/// key matches needs no analysis at all, and the cached merged report
/// is replayed verbatim.
#[must_use]
pub fn encoded_app_key(context: u64, sapk: &[u8]) -> u64 {
    let mut h = fnv1a(&context.to_le_bytes(), FNV_OFFSET);
    h = fnv1a(b"sapk-container", h);
    fnv1a(sapk, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApiLevel, Apk, ApkBuilder, ClassBuilder, ClassOrigin};

    fn apk() -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        ApkBuilder::new("p.app", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn class_fingerprint_tracks_content() {
        let a = apk();
        let class = a.primary.classes().next().unwrap();
        let fp = class_fingerprint(class);
        assert_eq!(fp, class_fingerprint(class), "deterministic");
        let mut changed = class.clone();
        changed.interfaces.push("p.Marker".into());
        assert_ne!(fp, class_fingerprint(&changed));
    }

    #[test]
    fn context_fingerprint_folds_detector_set() {
        use saint_adf::{AndroidFramework, SynthConfig};
        use saint_analysis::ExploreConfig;
        use saintdroid::DetectorSet;
        use std::sync::Arc;

        let framework = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
        let amd = SaintDroid::new(Arc::clone(&framework));
        let all = SaintDroid::new(Arc::clone(&framework)).with_detectors(DetectorSet::all());
        assert_eq!(
            context_fingerprint(&amd),
            context_fingerprint(&amd),
            "deterministic"
        );
        assert_ne!(
            context_fingerprint(&amd),
            context_fingerprint(&all),
            "enabling a detector family must invalidate every cached artifact"
        );

        // So must a policy change: the shallow preset, or one flag flipped.
        let edits: [fn(&mut ExploreConfig); 5] = [
            |c| *c = ExploreConfig::shallow(),
            |c| c.follow_framework ^= true,
            |c| c.follow_dynamic ^= true,
            |c| c.skip_anonymous ^= true,
            |c| c.preload_all ^= true,
        ];
        let base = context_fingerprint(&amd);
        for (i, edit) in edits.into_iter().enumerate() {
            let mut config = ExploreConfig::saintdroid();
            edit(&mut config);
            let tool = SaintDroid::with_config(Arc::clone(&framework), config);
            assert_ne!(context_fingerprint(&tool), base, "policy edit {i}");
        }
    }

    #[test]
    fn app_key_tracks_manifest_and_payload() {
        let a = apk();
        let ctx = 7;
        let key = |apk: &Apk| encoded_app_key(ctx, &codec::encode_apk(apk));
        let base = key(&a);
        assert_eq!(base, key(&a), "deterministic");

        let mut remanifested = a.clone();
        remanifested.manifest.package = "p.other".into();
        assert_ne!(base, key(&remanifested));

        let mut repacked = a.clone();
        let class = a.primary.classes().next().unwrap().clone();
        repacked.primary = saint_ir::DexFile::new("classes.dex");
        let mut dex = saint_ir::DexFile::new("assets/p.dex");
        dex.add_class(class).unwrap();
        repacked.secondary.push(dex);
        assert_ne!(base, key(&repacked), "dex placement is key-relevant");
    }
}
