//! Property-based tests over the detector stack: randomly assembled
//! apps must never panic any tool, reports must be deterministic and
//! deduplicated, and guarding a call can only ever *reduce* what
//! SAINTDroid reports.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use saint_adf::{well_known, AndroidFramework};
use saint_baselines::{Cid, Cider, Lint};
use saint_ir::{ApiLevel, Apk, ApkBuilder, BodyBuilder, ClassBuilder, ClassOrigin, MethodRef};
use saintdroid::{CompatDetector, Family, SaintDroid};

/// A small menu of real framework APIs with varied lifetimes.
fn api_menu() -> Vec<MethodRef> {
    vec![
        well_known::context_get_color_state_list(),
        well_known::context_get_drawable(),
        well_known::webview_evaluate_javascript(),
        well_known::create_notification_channel(),
        well_known::http_client_execute(),
        well_known::camera_open(),
        well_known::tint_helper_apply_tint(),
        well_known::activity_set_content_view(),
        well_known::resources_compat_get_csl(),
    ]
}

#[derive(Debug, Clone)]
struct SiteSpec {
    api_idx: usize,
    guard: Option<u8>,
}

fn arb_site() -> impl Strategy<Value = SiteSpec> {
    (0usize..9, proptest::option::of(14u8..29))
        .prop_map(|(api_idx, guard)| SiteSpec { api_idx, guard })
}

#[derive(Debug, Clone)]
struct AppSpec {
    min: u8,
    span: u8,
    sites: Vec<SiteSpec>,
    overrides: Vec<usize>,
}

fn arb_app() -> impl Strategy<Value = AppSpec> {
    (
        8u8..27,
        2u8..12,
        vec(arb_site(), 0..6),
        vec(0usize..4, 0..3),
    )
        .prop_map(|(min, span, sites, overrides)| AppSpec {
            min,
            span,
            sites,
            overrides,
        })
}

fn build_app(spec: &AppSpec) -> Apk {
    let menu = api_menu();
    let target = ApiLevel::new(spec.min.saturating_add(spec.span).min(29));
    let callbacks: [(&str, &str, &str); 4] = [
        ("android.app.Activity", "onMultiWindowModeChanged", "(Z)V"),
        (
            "android.app.Fragment",
            "onAttach",
            "(Landroid/content/Context;)V",
        ),
        ("android.view.View", "drawableHotspotChanged", "(FF)V"),
        ("android.app.Activity", "onCreate", "(Landroid/os/Bundle;)V"),
    ];

    let mut main =
        ClassBuilder::new("gen.app.Main", ClassOrigin::App).extends("android.app.Activity");
    for (i, site) in spec.sites.iter().enumerate() {
        let api = menu[site.api_idx % menu.len()].clone();
        let guard = site.guard;
        main = main
            .method(
                format!("site{i}"),
                "()V",
                move |b: &mut BodyBuilder| match guard {
                    Some(g) => {
                        let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(g));
                        b.switch_to(then_blk);
                        b.invoke_virtual(api, &[], None);
                        b.goto(join);
                        b.switch_to(join);
                        b.ret_void();
                    }
                    None => {
                        b.invoke_virtual(api, &[], None);
                        b.ret_void();
                    }
                },
            )
            .expect("unique names");
    }
    let mut builder = ApkBuilder::new("gen.app", ApiLevel::new(spec.min), target)
        .activity("gen.app.Main")
        .class(main.build())
        .expect("unique class");
    for (i, &cb) in spec.overrides.iter().enumerate() {
        let (sup, name, desc) = callbacks[cb % callbacks.len()];
        let class = ClassBuilder::new(format!("gen.app.Cb{i}").as_str(), ClassOrigin::App)
            .extends(sup)
            .method(name, desc, |b| {
                b.ret_void();
            })
            .expect("unique method")
            .build();
        builder = builder.class(class).expect("unique class");
    }
    builder.build()
}

fn framework() -> Arc<AndroidFramework> {
    Arc::new(AndroidFramework::curated())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_tool_panics_on_generated_apps(spec in arb_app()) {
        let apk = build_app(&spec);
        let fw = framework();
        let _ = SaintDroid::new(Arc::clone(&fw)).analyze(&apk);
        let _ = Cid::new(Arc::clone(&fw)).analyze(&apk);
        let _ = Cider::new(Arc::clone(&fw)).analyze(&apk);
        let _ = Lint::new(Arc::clone(&fw)).analyze(&apk);
    }

    #[test]
    fn saintdroid_reports_are_deterministic(spec in arb_app()) {
        let apk = build_app(&spec);
        let tool = SaintDroid::new(framework());
        let a = tool.analyze(&apk).unwrap();
        let b = tool.analyze(&apk).unwrap();
        prop_assert_eq!(a.mismatches, b.mismatches);
    }

    #[test]
    fn reports_are_deduplicated(spec in arb_app()) {
        let apk = build_app(&spec);
        let report = SaintDroid::new(framework()).analyze(&apk).unwrap();
        for (i, a) in report.mismatches.iter().enumerate() {
            for b in &report.mismatches[i + 1..] {
                prop_assert_ne!(a.dedup_key(), b.dedup_key());
            }
        }
    }

    #[test]
    fn full_guards_silence_every_api_site(spec in arb_app()) {
        // Guarding every call site at level 29 restricts execution to
        // the newest level; the only possible API findings left are
        // removed-API (forward) cases, never introduced-later ones.
        let mut guarded = spec.clone();
        for site in &mut guarded.sites {
            site.guard = Some(29);
        }
        let apk = build_app(&guarded);
        let report = SaintDroid::new(framework()).analyze(&apk).unwrap();
        for m in report.of_kind(saintdroid::MismatchKind::ApiInvocation) {
            let life = m.api_life.expect("api mismatches carry lifetimes");
            prop_assert!(
                life.removed.is_some(),
                "only forward (removed) findings may survive a max-level guard: {}",
                m
            );
        }
    }

    #[test]
    fn guarding_never_adds_findings(spec in arb_app()) {
        let unguarded = {
            let mut s = spec.clone();
            for site in &mut s.sites {
                site.guard = None;
            }
            s
        };
        let tool = SaintDroid::new(framework());
        let base = tool.analyze(&build_app(&unguarded)).unwrap();
        let guarded_report = tool.analyze(&build_app(&spec)).unwrap();
        prop_assert!(
            guarded_report.family_count(Family::Api) <= base.family_count(Family::Api),
            "guards must be monotone: {} vs {}",
            guarded_report.family_count(Family::Api),
            base.family_count(Family::Api)
        );
    }

    #[test]
    fn missing_levels_always_within_supported_range(spec in arb_app()) {
        prop_missing_levels_within_range(&spec)?;
    }
}

/// Body of `missing_levels_always_within_supported_range`, shared with
/// the pinned regression seeds below.
fn prop_missing_levels_within_range(spec: &AppSpec) -> Result<(), String> {
    let apk = build_app(spec);
    let supported = apk.manifest.supported_levels();
    let report = SaintDroid::new(framework()).analyze(&apk).unwrap();
    for m in &report.mismatches {
        if m.kind == saintdroid::MismatchKind::ApiInvocation
            || m.kind == saintdroid::MismatchKind::ApiCallback
        {
            for l in &m.missing_levels {
                prop_assert!(
                    supported.contains(*l),
                    "{m} reports level {l} outside {supported}"
                );
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pinned regression seeds (tests/detector_properties.proptest-regressions).
//
// Upstream proptest replays the checked-in seeds before generating novel
// cases; the vendored stand-in (vendor/proptest) deliberately ignores
// `.proptest-regressions` files, so the two tests below are what actually
// re-runs them. Each reconstructs its shrunk `AppSpec` explicitly so the
// historical failure is documented, runs deterministically (no RNG
// involved), and fails loudly with a readable diff if either bug regresses.
// The seeds file stays checked in for anyone running against upstream
// proptest — do not delete it.
// ---------------------------------------------------------------------------

/// Seed `0c761a17…`: an app supporting 11..=17 whose SDK guards (18, 20, 26)
/// all sit *above* the target level, i.e. every guarded block is unreachable
/// at every supported level.
///
/// Historically the guard refinement saturated (`refine_at_least` keeps a
/// non-empty range whose min can exceed the supported max), so the invocation
/// detector evaluated those dead blocks under a range like 20..=20 and
/// reported missing levels *outside* `manifest.supported_levels()`, failing
/// `missing_levels_always_within_supported_range`. Resolved by routing guard
/// refinement through `LevelRange::checked_refine_at_least`/`_at_most`
/// (crates/analysis/src/guards.rs), which collapse unsatisfiable guards to
/// `None` so unreachable guarded blocks are skipped entirely.
#[test]
fn seed_unsatisfiable_guards_stay_within_supported_range() {
    let spec = AppSpec {
        min: 11,
        span: 6, // target = 17: every guard below is above-target
        sites: vec![
            SiteSpec {
                api_idx: 5,
                guard: Some(20),
            },
            SiteSpec {
                api_idx: 1,
                guard: None,
            },
            SiteSpec {
                api_idx: 3,
                guard: None,
            },
            SiteSpec {
                api_idx: 2,
                guard: Some(26),
            },
            SiteSpec {
                api_idx: 4,
                guard: Some(18),
            },
        ],
        overrides: vec![3],
    };
    prop_missing_levels_within_range(&spec).unwrap();

    // The fix must not silence the *unguarded* sites: the app still calls
    // real APIs with level-sensitive lifetimes, so the report is non-empty.
    let report = SaintDroid::new(framework())
        .analyze(&build_app(&spec))
        .unwrap();
    assert!(
        !report.mismatches.is_empty(),
        "unguarded sites must still produce findings"
    );
}

/// Seed `8a4ffaa0…`: an app supporting 19..=23 with two call sites into the
/// same deep-path API (`TintHelper.applyTint`, present at every level but
/// whose framework body reaches an API-23 call) — one site guarded at 20,
/// one unguarded.
///
/// Historically the second visit of the framework subtree was suppressed by
/// a memo keyed only on (root, range), so findings surfaced under whichever
/// site happened to be scanned first — report contents depended on visit
/// order, failing `saintdroid_reports_are_deterministic` between runs.
/// Resolved by qualifying the deep-scan memo key with the attributed app
/// site (`enter_framework` in crates/core/src/amd/invocation.rs) and merging
/// same-key findings via `Report::extend_deduped`, which unions their
/// missing-level sets instead of dropping one.
#[test]
fn seed_deep_path_two_sites_deterministic_and_deduped() {
    let spec = AppSpec {
        min: 19,
        span: 4, // target = 23: setForeground (API 23) missing below it
        sites: vec![
            SiteSpec {
                api_idx: 6,
                guard: Some(20),
            },
            SiteSpec {
                api_idx: 6,
                guard: None,
            },
        ],
        overrides: vec![],
    };
    let apk = build_app(&spec);
    let tool = SaintDroid::new(framework());
    let a = tool.analyze(&apk).unwrap();
    let b = tool.analyze(&apk).unwrap();
    assert_eq!(a.mismatches, b.mismatches, "reports must be deterministic");

    // Both sites reach the API-23 call; each is attributed separately, so
    // dedup keys (which include the site) must all be distinct.
    for (i, m) in a.mismatches.iter().enumerate() {
        for n in &a.mismatches[i + 1..] {
            assert_ne!(m.dedup_key(), n.dedup_key(), "{m} duplicates {n}");
        }
    }
}
