//! End-to-end pipeline tests across crates: the on-disk container, the
//! lazy loader, late binding, and the full detector stack working
//! together.

use std::sync::Arc;

use saint_adf::{well_known, AndroidFramework, SynthConfig};
use saint_corpus::{benchmark_suite, RealWorldConfig, RealWorldCorpus};
use saint_ir::{
    codec, ApiLevel, ApkBuilder, ClassBuilder, ClassOrigin, DexFile, InvokeKind, MethodRef,
};
use saintdroid::{CompatDetector, Family, MismatchKind, SaintDroid};

fn tool() -> SaintDroid {
    SaintDroid::new(Arc::new(AndroidFramework::curated()))
}

#[test]
fn analysis_is_invariant_under_codec_roundtrip() {
    let t = tool();
    for app in benchmark_suite() {
        let direct = t.analyze(&app.apk).unwrap();
        let bytes = codec::encode_apk(&app.apk);
        let reparsed = codec::decode_apk(&bytes).unwrap();
        let via_disk = t.analyze(&reparsed).unwrap();
        assert_eq!(
            direct.mismatches, via_disk.mismatches,
            "{}: reports must not depend on the serialization path",
            app.name
        );
    }
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let t = tool();
    let corpus = RealWorldCorpus::new(RealWorldConfig::small());
    for i in [0usize, 7, 23] {
        let apk = corpus.get(i).apk;
        let a = t.analyze(&apk).unwrap();
        let b = t.analyze(&apk).unwrap();
        assert_eq!(a.mismatches, b.mismatches, "app {i}");
    }
}

#[test]
fn late_bound_payload_issues_detected_end_to_end() {
    // An app whose only issue lives in a secondary dex reached through
    // DexClassLoader.loadClass("plug.Plugin") — the paper's late
    // binding scenario (§III-A).
    let mut payload = DexFile::new("assets/plugin.dex");
    payload
        .add_class(
            ClassBuilder::new("plug.Plugin", ClassOrigin::DynamicPayload)
                .method("run", "()V", |b| {
                    b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                    b.ret_void();
                })
                .unwrap()
                .build(),
        )
        .unwrap();
    let main = ClassBuilder::new("host.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            let loader = b.alloc_reg();
            let name = b.alloc_reg();
            b.new_instance(loader, "dalvik.system.DexClassLoader");
            b.const_str(name, "plug.Plugin");
            b.invoke(
                InvokeKind::Virtual,
                well_known::dex_class_loader_load_class(),
                &[loader, name],
                None,
            );
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("host", ApiLevel::new(21), ApiLevel::new(28))
        .activity("host.Main")
        .class(main)
        .unwrap()
        .secondary_dex(payload)
        .build();

    let report = tool().analyze(&apk).unwrap();
    assert_eq!(report.family_count(Family::Api), 1, "{report}");
    let m = report.of_kind(MismatchKind::ApiInvocation).next().unwrap();
    assert_eq!(m.site.class.as_str(), "plug.Plugin");
}

#[test]
fn code_loaded_from_outside_the_package_is_a_terminal() {
    // loadClass("remote.Blob") with no bundled payload: statically
    // unanalyzable (paper §III-A caveat) — no crash, no phantom
    // findings.
    let main = ClassBuilder::new("host.Main", ClassOrigin::App)
        .method("boot", "()V", |b| {
            let name = b.alloc_reg();
            b.const_str(name, "remote.Blob");
            b.invoke_static(
                MethodRef::new(
                    "java.lang.Class",
                    "forName",
                    "(Ljava/lang/String;)Ljava/lang/Class;",
                ),
                &[name],
                None,
            );
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("host", ApiLevel::new(21), ApiLevel::new(28))
        .class(main)
        .unwrap()
        .build();
    let report = tool().analyze(&apk).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn bigger_framework_does_not_change_findings() {
    // Detection results depend on API lifetimes, not framework bulk:
    // the same app analyzed against the curated and the expanded
    // framework yields the same report (the expansion only adds
    // unreachable classes for this app).
    let apk = saint_corpus::cases::offline_calendar();
    let small = SaintDroid::new(Arc::new(AndroidFramework::curated()))
        .analyze(&apk)
        .unwrap();
    let big = SaintDroid::new(Arc::new(
        AndroidFramework::with_scale(&SynthConfig::small()),
    ))
    .analyze(&apk)
    .unwrap();
    assert_eq!(small.mismatches, big.mismatches);
    // …but the lazy loader's footprint stays in the same ballpark even
    // though the framework grew.
    assert!(big.meter.classes_loaded <= small.meter.classes_loaded + 5);
}

#[test]
fn report_json_serializes() {
    let report = tool().analyze(&saint_corpus::cases::kolab_notes()).unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(json.contains("PermissionRequest"));
    let back: saintdroid::Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back.mismatches, report.mismatches);
}
