//! Edge-case behavior of the baseline tools beyond their unit tests:
//! the blind spots the paper documents, exercised one by one.

use std::sync::Arc;

use saint_adf::{well_known, AndroidFramework};
use saint_baselines::{all_detectors, Cid, Cider, Lint, CID_MAX_LEVEL};
use saint_ir::{
    ApiLevel, Apk, ApkBuilder, ClassBuilder, ClassOrigin, DexFile, MethodRef, MethodSig,
};
use saintdroid::{CompatDetector, DetectorSet, Family, MismatchKind};

fn fw() -> Arc<AndroidFramework> {
    Arc::new(AndroidFramework::curated())
}

#[test]
fn detector_roster_and_capability_disjointness() {
    let tools = all_detectors(&fw());
    assert_eq!(tools.len(), 4);
    // Only SAINTDroid covers everything; every baseline has at least
    // one ✗ (Table IV's point).
    for t in &tools[1..] {
        assert!(
            !t.capabilities().contains(DetectorSet::amd()),
            "{} claims full coverage",
            t.name()
        );
    }
}

#[test]
fn cid_truncates_missing_levels_at_its_ceiling() {
    // App min 21, target 28 calls getColorStateList (23). CID analyzes
    // only up to level 25, so its reported missing set stays within
    // 21..=25 — SAINTDroid's reaches 22.
    let main = ClassBuilder::new("p.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
        .class(main)
        .unwrap()
        .build();
    let r = Cid::new(fw()).analyze(&apk).unwrap();
    assert_eq!(r.family_count(Family::Api), 1);
    for m in &r.mismatches {
        for l in &m.missing_levels {
            assert!(
                *l <= CID_MAX_LEVEL,
                "CID reported level {l} beyond its model"
            );
        }
    }
}

#[test]
fn cider_ignores_anonymous_classes_like_everyone() {
    let anon = ClassBuilder::new("p.Main$1", ClassOrigin::App)
        .extends("android.app.Fragment")
        .method("onAttach", "(Landroid/content/Context;)V", |b| {
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("p", ApiLevel::new(14), ApiLevel::new(27))
        .class(anon)
        .unwrap()
        .build();
    assert!(Cider::new(fw()).analyze(&apk).unwrap().is_clean());
}

#[test]
fn cider_analyzes_apps_cid_crashes_on() {
    // Multi-dex kills CID but not CIDER (different loaders).
    let frag = ClassBuilder::new("p.F", ClassOrigin::App)
        .extends("android.app.Fragment")
        .method("onAttach", "(Landroid/content/Context;)V", |b| {
            b.ret_void();
        })
        .unwrap()
        .build();
    let mut apk: Apk = ApkBuilder::new("p", ApiLevel::new(14), ApiLevel::new(27))
        .class(frag)
        .unwrap()
        .build();
    apk.secondary.push(DexFile::new("assets/x.dex"));
    assert!(Cid::new(fw()).analyze(&apk).is_none());
    let r = Cider::new(fw()).analyze(&apk).unwrap();
    assert_eq!(r.family_count(Family::Apc), 1);
}

#[test]
fn lint_ignores_secondary_dex_payloads() {
    let mut payload = DexFile::new("assets/plugin.dex");
    payload
        .add_class(
            ClassBuilder::new("plug.P", ClassOrigin::DynamicPayload)
                .method("go", "()V", |b| {
                    b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                    b.ret_void();
                })
                .unwrap()
                .build(),
        )
        .unwrap();
    let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
        .secondary_dex(payload)
        .build();
    assert!(Lint::new(fw()).analyze(&apk).unwrap().is_clean());
}

#[test]
fn lint_reports_without_context_ranges() {
    let main = ClassBuilder::new("p.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
        .class(main)
        .unwrap()
        .build();
    let r = Lint::new(fw()).analyze(&apk).unwrap();
    assert_eq!(r.family_count(Family::Api), 1);
    // Flow-insensitive: no context interval attached.
    assert!(r.mismatches[0].context.is_none());
}

#[test]
fn baselines_agree_with_saintdroid_on_the_trivial_case() {
    // A plain unguarded direct call in app code is the one scenario
    // every API-capable tool catches identically.
    let main = ClassBuilder::new("p.Main", ClassOrigin::App)
        .extends("android.app.Activity")
        .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
            b.invoke_virtual(well_known::context_get_drawable(), &[], None);
            b.ret_void();
        })
        .unwrap()
        .build();
    let apk = ApkBuilder::new("p", ApiLevel::new(19), ApiLevel::new(25))
        .class(main)
        .unwrap()
        .build();
    for tool in all_detectors(&fw()) {
        if !tool.capabilities().has(Family::Api) {
            continue;
        }
        let r = tool.analyze(&apk).unwrap();
        assert_eq!(
            r.family_count(Family::Api),
            1,
            "{} missed the trivial case",
            tool.name()
        );
        let m = r.of_kind(MismatchKind::ApiInvocation).next().unwrap();
        assert_eq!(
            m.api.signature(),
            MethodSig::new("getDrawable", "(I)Landroid/graphics/drawable/Drawable;")
        );
        assert_eq!(
            m.site,
            MethodRef::new("p.Main", "onCreate", "(Landroid/os/Bundle;)V")
        );
    }
}
