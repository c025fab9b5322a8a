//! Android Lint's `NewApi`-style check — reimplemented as the
//! SAINTDroid paper characterizes it:
//!
//! * **requires buildable source** (paper §IV-A): apps without source
//!   cannot be analyzed at all (the Table II/III dashes), and the
//!   mandatory build dominates analysis time for larger apps;
//! * **direct calls only, no context or control flow** (paper §V-C:
//!   "its analysis only examines direct calls to the API without
//!   considering the context or control flow") — guards are ignored
//!   entirely, producing the documented false alarms on guarded calls;
//! * **source-module scope**: binary libraries bundled with the app and
//!   late-bound payloads are outside the source tree and unscanned;
//! * **static receiver types only**: calls reaching framework APIs
//!   through app-level subclasses are not attributed to the API.
//!
//! Lint detects only API invocation issues (paper Table IV: ✓ ✗ ✗).

use std::sync::Arc;
use std::time::Instant;

use saint_adf::AndroidFramework;
use saint_analysis::{AbsState, Cfg, Clvm, LoadMeter, PrimaryDexProvider};
use saint_ir::{codec, Apk, ClassOrigin};
use saintdroid::{
    missing_levels_in, CompatDetector, DetectorSet, Family, Mismatch, MismatchKind, Report,
};

/// How many build passes the simulated Gradle build performs. Each pass
/// re-serializes and re-parses the whole package and rebuilds every
/// method graph — standing in for compilation, which the real Lint
/// cannot skip (the paper ran four Lint builds per app and averaged the
/// last three).
const BUILD_PASSES: usize = 12;

/// The Android Lint baseline detector.
pub struct Lint {
    framework: Arc<AndroidFramework>,
}

impl Lint {
    /// Creates Lint over a framework model (its API database stands in
    /// for the SDK's `api-versions.xml`).
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Lint { framework }
    }

    /// The simulated build: repeatedly round-trips the package through
    /// the codec and rebuilds all graphs, charging the meter like a
    /// compiler materializing the whole module.
    fn build(&self, apk: &Apk, meter: &mut LoadMeter) {
        for _ in 0..BUILD_PASSES {
            let bytes = codec::encode_apk(apk);
            let rebuilt = codec::decode_apk(&bytes).expect("in-memory apk re-parses");
            for class in rebuilt.primary.classes() {
                meter.record_class(class.size_bytes());
                for m in &class.methods {
                    if let Some(body) = &m.body {
                        let cfg = Cfg::build(body);
                        let abs = AbsState::analyze(body, &cfg);
                        meter.record_method(cfg.size_bytes() + abs.size_bytes());
                    }
                }
            }
        }
    }
}

impl CompatDetector for Lint {
    fn name(&self) -> &'static str {
        "Lint"
    }

    fn capabilities(&self) -> DetectorSet {
        DetectorSet::of(Family::Api)
    }

    fn requires_source(&self) -> bool {
        true
    }

    fn analyze(&self, apk: &Apk) -> Option<Report> {
        if !apk.has_source {
            return None; // cannot build: excluded (paper §IV-A)
        }
        let start = Instant::now();
        let mut report = Report::new(apk.manifest.package.clone(), self.name());
        let mut meter = LoadMeter::new();
        self.build(apk, &mut meter);

        // Scan phase: App-origin classes only (the source module);
        // bundled binary libraries and payloads are invisible.
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        let db = self.framework.database();
        let supported = apk.manifest.supported_levels();
        let mut mismatches = Vec::new();
        for class in apk.primary.classes() {
            if !matches!(class.origin, ClassOrigin::App) {
                continue;
            }
            for m in &class.methods {
                let Some(body) = &m.body else { continue };
                for target in body.call_sites() {
                    // Static receiver types only: the written class must
                    // itself be a framework API owner (walking the
                    // framework's own hierarchy mirrors javac's static
                    // type resolution; app subclasses do not resolve).
                    if !db.is_api_class(&target.class) {
                        continue;
                    }
                    let Some((api_ref, life)) = db.resolve(&target.class, &target.signature())
                    else {
                        continue;
                    };
                    // No control-flow awareness: the whole declared
                    // range applies to every call site, guarded or not.
                    let missing = missing_levels_in(supported, life);
                    if missing.is_empty() {
                        continue;
                    }
                    mismatches.push(Mismatch {
                        kind: MismatchKind::ApiInvocation,
                        site: m.reference(&class.name),
                        api: api_ref,
                        api_life: Some(life),
                        missing_levels: missing,
                        context: None,
                        permission: None,
                        via: Vec::new(),
                    });
                }
            }
        }
        report.extend_deduped(mismatches);
        report.duration = start.elapsed();
        report.meter = meter;
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::well_known;
    use saint_ir::{ApiLevel, ApkBuilder, BodyBuilder, ClassBuilder, MethodRef};

    fn lint() -> Lint {
        Lint::new(Arc::new(AndroidFramework::curated()))
    }

    fn apk_with_oncreate(min: u8, f: impl FnOnce(&mut BodyBuilder)) -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", f)
            .unwrap()
            .build();
        ApkBuilder::new("p", ApiLevel::new(min), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn detects_direct_unguarded_call() {
        let apk = apk_with_oncreate(21, |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        });
        let r = lint().analyze(&apk).unwrap();
        assert_eq!(r.family_count(Family::Api), 1);
    }

    #[test]
    fn guard_insensitive_false_positive() {
        // The guarded Listing-1 pattern: safe code, but Lint (as the
        // paper characterizes it) has no control-flow awareness.
        let apk = apk_with_oncreate(21, |b| {
            let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
            b.switch_to(then_blk);
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.goto(join);
            b.switch_to(join);
            b.ret_void();
        });
        let r = lint().analyze(&apk).unwrap();
        assert_eq!(r.family_count(Family::Api), 1, "guarded call still flagged");
    }

    #[test]
    fn refuses_apps_without_source() {
        let mut apk = apk_with_oncreate(21, |b| {
            b.ret_void();
        });
        apk.has_source = false;
        assert!(lint().analyze(&apk).is_none());
    }

    #[test]
    fn library_classes_not_scanned() {
        let lib = ClassBuilder::new("libx.Widget", ClassOrigin::Library)
            .method("tint", "()V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(lib)
            .unwrap()
            .build();
        assert!(lint().analyze(&apk).unwrap().is_clean());
    }

    #[test]
    fn inherited_receiver_not_attributed() {
        // this.getFragmentManager() written against the app subclass:
        // Lint's static-type view does not land on the framework API.
        let apk = apk_with_oncreate(8, |b| {
            b.invoke_virtual(
                MethodRef::new(
                    "p.Main",
                    "getFragmentManager",
                    "()Landroid/app/FragmentManager;",
                ),
                &[],
                None,
            );
            b.ret_void();
        });
        assert!(lint().analyze(&apk).unwrap().is_clean());
    }

    #[test]
    fn no_apc_or_prm() {
        assert_eq!(lint().capabilities(), DetectorSet::of(Family::Api));
        assert!(lint().requires_source());
    }

    #[test]
    fn build_cost_scales_with_app_size() {
        let small = apk_with_oncreate(21, |b| {
            b.ret_void();
        });
        let mut big_class = ClassBuilder::new("p.Big", ClassOrigin::App);
        for i in 0..40 {
            big_class = big_class
                .method(format!("m{i}"), "()V", |b| {
                    b.pad(200);
                    b.ret_void();
                })
                .unwrap();
        }
        let big = ApkBuilder::new("p.big", ApiLevel::new(21), ApiLevel::new(28))
            .class(big_class.build())
            .unwrap()
            .build();
        let l = lint();
        let rs = l.analyze(&small).unwrap();
        let rb = l.analyze(&big).unwrap();
        assert!(rb.meter.total_bytes() > rs.meter.total_bytes() * 5);
    }
}
