//! CIDER (Huang et al., "Understanding and detecting callback
//! compatibility issues for Android applications") — reimplemented from
//! its published strategy and the limitations the SAINTDroid paper
//! documents:
//!
//! * detection is driven by **manually built PI-graph models** of
//!   "common compatibility callbacks of only four API classes" —
//!   `Activity`, `Fragment`, `Service` and `WebView` (paper §II-D,
//!   §VII); callbacks on any other class (View, WebViewClient,
//!   BroadcastReceiver, …) are invisible;
//! * the models are compiled from the **Android documentation, which is
//!   known to be incomplete** (paper §VII) — the model below carries a
//!   documentation bug on purpose;
//! * like the other monolithic tools it loads the entire app up front
//!   (paper §III-A: such tools "directly load the entire code base into
//!   memory").
//!
//! CIDER detects only APC issues (paper Table IV row: ✗ ✓ ✗).

use std::sync::Arc;
use std::time::Instant;

use saint_adf::spec::LifeSpan;
use saint_adf::AndroidFramework;
use saint_analysis::{AbsState, Cfg, Clvm, PrimaryDexProvider, SecondaryDexProvider};
use saint_ir::{Apk, ClassName, MethodSig};
use saintdroid::{
    missing_levels_in, CompatDetector, DetectorSet, Family, Mismatch, MismatchKind, Report,
};

/// One modeled callback in a PI-graph.
#[derive(Debug, Clone)]
pub struct ModeledCallback {
    /// Owning modeled class.
    pub class: &'static str,
    /// Callback name.
    pub name: &'static str,
    /// Callback descriptor.
    pub descriptor: &'static str,
    /// The level the *documentation* says introduced it.
    pub since: u8,
}

/// The four classes CIDER's authors modeled.
pub const MODELED_CLASSES: [&str; 4] = [
    "android.app.Activity",
    "android.app.Fragment",
    "android.app.Service",
    "android.webkit.WebView",
];

/// The hand-built callback model (PI-graphs). Compare with the mined
/// database in `saint-adf`: this list is narrower (four classes only)
/// and carries a deliberate documentation error on `WebView.onPause`
/// (modeled as API 12; the platform shipped it in 11) to reproduce the
/// incomplete-documentation failure mode.
pub fn pi_model() -> Vec<ModeledCallback> {
    macro_rules! cb {
        ($class:expr, $name:expr, $desc:expr, $since:expr) => {
            ModeledCallback {
                class: $class,
                name: $name,
                descriptor: $desc,
                since: $since,
            }
        };
    }
    vec![
        // Activity lifecycle.
        cb!(
            "android.app.Activity",
            "onCreate",
            "(Landroid/os/Bundle;)V",
            2
        ),
        cb!("android.app.Activity", "onStart", "()V", 2),
        cb!("android.app.Activity", "onResume", "()V", 2),
        cb!("android.app.Activity", "onPause", "()V", 2),
        cb!("android.app.Activity", "onStop", "()V", 2),
        cb!("android.app.Activity", "onDestroy", "()V", 2),
        cb!(
            "android.app.Activity",
            "onSaveInstanceState",
            "(Landroid/os/Bundle;)V",
            2
        ),
        cb!("android.app.Activity", "onBackPressed", "()V", 5),
        cb!("android.app.Activity", "onAttachedToWindow", "()V", 5),
        cb!(
            "android.app.Activity",
            "onMultiWindowModeChanged",
            "(Z)V",
            24
        ),
        cb!(
            "android.app.Activity",
            "onPictureInPictureModeChanged",
            "(Z)V",
            24
        ),
        cb!(
            "android.app.Activity",
            "onRequestPermissionsResult",
            "(I[Ljava/lang/String;[I)V",
            23
        ),
        cb!(
            "android.app.Activity",
            "onTopResumedActivityChanged",
            "(Z)V",
            29
        ),
        // Fragment.
        cb!(
            "android.app.Fragment",
            "onAttach",
            "(Landroid/app/Activity;)V",
            11
        ),
        cb!(
            "android.app.Fragment",
            "onAttach",
            "(Landroid/content/Context;)V",
            23
        ),
        cb!(
            "android.app.Fragment",
            "onCreate",
            "(Landroid/os/Bundle;)V",
            11
        ),
        cb!(
            "android.app.Fragment",
            "onViewCreated",
            "(Landroid/view/View;Landroid/os/Bundle;)V",
            13
        ),
        cb!("android.app.Fragment", "onDestroyView", "()V", 11),
        // Service.
        cb!("android.app.Service", "onCreate", "()V", 2),
        cb!(
            "android.app.Service",
            "onStartCommand",
            "(Landroid/content/Intent;II)I",
            5
        ),
        cb!(
            "android.app.Service",
            "onTaskRemoved",
            "(Landroid/content/Intent;)V",
            14
        ),
        cb!("android.app.Service", "onTrimMemory", "(I)V", 14),
        // WebView — with the deliberate documentation bug on onPause.
        cb!("android.webkit.WebView", "onPause", "()V", 12),
        cb!("android.webkit.WebView", "onResume", "()V", 11),
        cb!(
            "android.webkit.WebView",
            "onProvideVirtualStructure",
            "(Landroid/view/ViewStructure;)V",
            23
        ),
    ]
}

/// The CIDER baseline detector.
pub struct Cider {
    framework: Arc<AndroidFramework>,
    model: Vec<ModeledCallback>,
}

impl Cider {
    /// Creates CIDER over a framework model (used only to walk class
    /// hierarchies; detection relies on the hand-built model).
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Cider {
            framework,
            model: pi_model(),
        }
    }

    fn lookup(&self, class: &str, sig: &MethodSig) -> Option<&ModeledCallback> {
        self.model
            .iter()
            .find(|m| m.class == class && m.name == &*sig.name && m.descriptor == &*sig.descriptor)
    }
}

impl CompatDetector for Cider {
    fn name(&self) -> &'static str {
        "CIDER"
    }

    fn capabilities(&self) -> DetectorSet {
        DetectorSet::of(Family::Apc)
    }

    fn analyze(&self, apk: &Apk) -> Option<Report> {
        let start = Instant::now();
        let mut report = Report::new(apk.manifest.package.clone(), self.name());
        // Monolithic app loading (no framework code — models replace it).
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        for dex in &apk.secondary {
            clvm.add_provider(Box::new(SecondaryDexProvider::new(dex)));
        }
        clvm.load_everything();
        // CIDER still builds per-method graphs over the whole app.
        for name in clvm.available_class_names() {
            if let Some(class) = clvm.load_class(&name) {
                for m in &class.methods {
                    if let Some(body) = &m.body {
                        let cfg = Cfg::build(body);
                        let abs = AbsState::analyze(body, &cfg);
                        clvm.meter_ref()
                            .record_method(cfg.size_bytes() + abs.size_bytes());
                    }
                }
            }
        }

        let supported = apk.manifest.supported_levels();
        let mut mismatches = Vec::new();
        for class in apk.primary.classes() {
            if class.name.is_anonymous_inner() {
                continue;
            }
            // Walk app-side supers until we leave the package; the
            // first framework name must be one of the four modeled
            // classes for CIDER to say anything.
            let mut cursor: Option<ClassName> = class.super_class.clone();
            let mut modeled: Option<&'static str> = None;
            for _ in 0..32 {
                let Some(name) = cursor else { break };
                if let Some(hit) = MODELED_CLASSES.iter().find(|m| **m == name.as_str()) {
                    modeled = Some(hit);
                    break;
                }
                if name.is_framework_namespace() {
                    break; // some other framework class: not modeled
                }
                cursor = apk.any_class(&name).and_then(|c| c.super_class.clone());
            }
            let Some(modeled_class) = modeled else {
                continue;
            };
            for method in &class.methods {
                if method.flags.is_static || method.name.starts_with('<') {
                    continue;
                }
                let Some(cb) = self.lookup(modeled_class, &method.signature()) else {
                    continue;
                };
                let life = LifeSpan::since(cb.since);
                let missing = missing_levels_in(supported, life);
                if missing.is_empty() {
                    continue;
                }
                mismatches.push(Mismatch {
                    kind: MismatchKind::ApiCallback,
                    site: method.reference(&class.name),
                    api: saint_ir::MethodRef::new(cb.class, cb.name, cb.descriptor),
                    api_life: Some(life),
                    missing_levels: missing,
                    context: Some(supported),
                    permission: None,
                    via: Vec::new(),
                });
            }
        }
        report.extend_deduped(mismatches);
        report.duration = start.elapsed();
        report.meter = clvm.meter();
        // Keep the framework handle alive in the type; CIDER does not
        // load framework code.
        let _ = &self.framework;
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApiLevel, ApkBuilder, ClassBuilder, ClassOrigin};

    fn cider() -> Cider {
        Cider::new(Arc::new(AndroidFramework::curated()))
    }

    fn apk(min: u8, target: u8, classes: Vec<saint_ir::ClassDef>) -> Apk {
        let mut b = ApkBuilder::new("p", ApiLevel::new(min), ApiLevel::new(target));
        for c in classes {
            b = b.class(c).unwrap();
        }
        b.build()
    }

    #[test]
    fn detects_modeled_fragment_callback() {
        let frag = ClassBuilder::new("p.F", ClassOrigin::App)
            .extends("android.app.Fragment")
            .method("onAttach", "(Landroid/content/Context;)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let r = cider().analyze(&apk(14, 27, vec![frag])).unwrap();
        assert_eq!(r.family_count(Family::Apc), 1);
    }

    #[test]
    fn misses_view_callbacks_not_modeled() {
        // drawableHotspotChanged (the FOSDEM case): View is not among
        // the four modeled classes.
        let layout = ClassBuilder::new("p.L", ClassOrigin::App)
            .extends("android.widget.LinearLayout")
            .method("drawableHotspotChanged", "(FF)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let r = cider().analyze(&apk(15, 27, vec![layout])).unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn misses_subclass_of_unmodeled_framework_intermediate() {
        // PreferenceActivity → ListActivity → Activity: the first
        // framework ancestor is not a modeled class, so CIDER is blind
        // even though the callback ultimately belongs to Activity.
        let prefs = ClassBuilder::new("p.Prefs", ClassOrigin::App)
            .extends("android.preference.PreferenceActivity")
            .method("onMultiWindowModeChanged", "(Z)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let r = cider().analyze(&apk(21, 27, vec![prefs])).unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn documentation_bug_yields_false_positive() {
        // WebView.onPause shipped in API 11 but CIDER's model says 12:
        // an app with minSdkVersion 11 gets a false alarm.
        let web = ClassBuilder::new("p.W", ClassOrigin::App)
            .extends("android.webkit.WebView")
            .method("onPause", "()V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let r = cider().analyze(&apk(11, 27, vec![web])).unwrap();
        assert_eq!(
            r.family_count(Family::Apc),
            1,
            "doc-driven model misfires at the boundary"
        );
    }

    #[test]
    fn no_api_invocation_capability() {
        assert_eq!(cider().capabilities(), DetectorSet::of(Family::Apc));
    }

    #[test]
    fn app_hierarchy_hop_to_modeled_class_followed() {
        let base = ClassBuilder::new("p.Base", ClassOrigin::App)
            .extends("android.app.Activity")
            .build();
        let sub = ClassBuilder::new("p.Sub", ClassOrigin::App)
            .extends("p.Base")
            .method("onMultiWindowModeChanged", "(Z)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let r = cider().analyze(&apk(21, 27, vec![base, sub])).unwrap();
        assert_eq!(r.family_count(Family::Apc), 1);
    }
}
