//! AUM — the API Usage Modeler (paper §III-A).
//!
//! Builds the per-app analysis model: a [`Clvm`] wired with the app's
//! primary dex, its bundled secondary dex payloads, and the framework
//! at the app's target level; then runs the Algorithm-1 exploration to
//! produce the method universe, call graph and late-binding
//! discoveries. Framework ancestors of app classes are resolved once
//! here (they drive the callback detector).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_analysis::{
    app_method_roots, explore_parallel, ArtifactCache, Clvm, Exploration, ExploreConfig,
    FrameworkProvider, PrimaryDexProvider, SecondaryDexProvider, ShardedClassCache,
};
use saint_ir::{ApiLevel, Apk, ClassDef, ClassName, ClassOrigin, LevelRange, Manifest};

/// The per-app analysis model the AMD detectors consume.
pub struct AppModel {
    /// The app's manifest (cloned out of the APK).
    pub manifest: Manifest,
    /// Device levels the app declares support for.
    pub supported: LevelRange,
    /// The app's target level, clamped into the modeled range — the
    /// framework snapshot classes are materialized from.
    pub target: ApiLevel,
    /// Every class bundled in the package (primary + payloads).
    pub app_classes: Vec<Arc<ClassDef>>,
    /// The exploration result (methods, call graph, resolutions).
    pub exploration: Exploration,
    /// The class loader, retained for post-exploration lookups and its
    /// meter.
    pub clvm: Clvm,
    fw_ancestors: HashMap<ClassName, Option<ClassName>>,
    /// Name → descriptors of every method declared by an app class —
    /// built once so per-API permission-handler probes are O(1) instead
    /// of walking every method of every class.
    declared_methods: HashMap<String, HashSet<String>>,
}

impl AppModel {
    /// The first framework class above `class` in the superclass
    /// chain, if any (resolved once at build time).
    #[must_use]
    pub fn framework_ancestor(&self, class: &ClassName) -> Option<&ClassName> {
        self.fw_ancestors.get(class).and_then(Option::as_ref)
    }

    /// Whether any app (non-framework) class declares a method with
    /// this name and descriptor — e.g. the runtime-permission handler
    /// Algorithm 4 looks for.
    #[must_use]
    pub fn declares_app_method(&self, name: &str, descriptor: &str) -> bool {
        self.declared_methods
            .get(name)
            .is_some_and(|descriptors| descriptors.contains(descriptor))
    }
}

impl std::fmt::Debug for AppModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppModel")
            .field("package", &self.manifest.package)
            .field("supported", &self.supported)
            .field("methods", &self.exploration.methods.len())
            .finish()
    }
}

/// The API Usage Modeler.
#[derive(Debug, Default)]
pub struct Aum;

impl Aum {
    /// Builds the analysis model for an APK against a framework.
    #[must_use]
    pub fn build(apk: &Apk, framework: &Arc<AndroidFramework>, config: &ExploreConfig) -> AppModel {
        Self::build_metered(apk, framework, config, None, None, 1, None)
    }

    /// Builds the analysis model, optionally serving framework-class
    /// materializations from a batch-wide [`ShardedClassCache`] and
    /// framework-method artifacts (CFG + abstract state) from a
    /// batch-wide [`ArtifactCache`]. The resulting model (and its
    /// per-app meter) is identical either way; only where the work
    /// happens moves from per-app to per-batch.
    ///
    /// `app_jobs > 1` runs the Algorithm-1 exploration on that many
    /// worker threads sharing the CLVM; the model is identical to the
    /// sequential build (see [`explore_parallel`]).
    ///
    /// With a metrics registry attached to the model's CLVM, class
    /// materializations and the exploration are recorded as phase
    /// spans, and the detectors reach the registry through
    /// `model.clvm`. The model itself — classes, exploration, meter —
    /// is identical with or without it.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build_metered(
        apk: &Apk,
        framework: &Arc<AndroidFramework>,
        config: &ExploreConfig,
        cache: Option<&Arc<ShardedClassCache>>,
        artifacts: Option<&Arc<ArtifactCache>>,
        app_jobs: usize,
        metrics: Option<&Arc<saint_obs::MetricsRegistry>>,
    ) -> AppModel {
        let target = apk.manifest.target_sdk.clamp_modeled();
        let mut clvm = Clvm::new();
        if let Some(metrics) = metrics {
            clvm.set_metrics(Arc::clone(metrics));
        }
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        for dex in &apk.secondary {
            clvm.add_provider(Box::new(SecondaryDexProvider::new(dex)));
        }
        let mut provider = match cache {
            Some(cache) => {
                FrameworkProvider::with_cache(Arc::clone(framework), target, Arc::clone(cache))
            }
            None => FrameworkProvider::new(Arc::clone(framework), target),
        };
        if let Some(metrics) = metrics {
            provider = provider.with_metrics(Arc::clone(metrics));
        }
        clvm.add_provider(Box::new(provider));

        let exploration = explore_parallel(
            &clvm,
            app_method_roots(apk),
            config,
            artifacts.map(|a| (a.as_ref(), target)),
            app_jobs,
        );

        // Snapshot the package's classes and resolve each one's
        // framework ancestor (cheap: classes on the chain are loaded at
        // most once; most are already in the CLVM).
        let mut app_classes = Vec::with_capacity(apk.class_count());
        let mut fw_ancestors = HashMap::new();
        let mut declared_methods: HashMap<String, HashSet<String>> = HashMap::new();
        for class in apk.all_shared_classes() {
            let arc = clvm
                .load_class(&class.name)
                .unwrap_or_else(|| Arc::clone(class));
            fw_ancestors.insert(class.name.clone(), clvm.framework_ancestor(&class.name));
            for m in &arc.methods {
                declared_methods
                    .entry(m.name.clone())
                    .or_default()
                    .insert(m.descriptor.clone());
            }
            app_classes.push(arc);
        }

        AppModel {
            manifest: apk.manifest.clone(),
            supported: apk.manifest.supported_levels(),
            target,
            app_classes,
            exploration,
            clvm,
            fw_ancestors,
            declared_methods,
        }
    }
}

/// Classifies whether an analyzed method belongs to the app side
/// (anything that shipped in the package) rather than the platform.
#[must_use]
pub fn is_app_origin(origin: ClassOrigin) -> bool {
    !matches!(origin, ClassOrigin::Framework)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApkBuilder, ClassBuilder};

    fn framework() -> Arc<AndroidFramework> {
        Arc::new(AndroidFramework::curated())
    }

    fn demo_apk() -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let plain = ClassBuilder::new("p.Util", ClassOrigin::App).build();
        ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .class(plain)
            .unwrap()
            .build()
    }

    #[test]
    fn model_captures_manifest_and_range() {
        let model = Aum::build(&demo_apk(), &framework(), &ExploreConfig::saintdroid());
        assert_eq!(model.manifest.package, "p");
        assert_eq!(model.supported.min(), ApiLevel::new(21));
        assert_eq!(model.target, ApiLevel::new(28));
        assert_eq!(model.app_classes.len(), 2);
    }

    #[test]
    fn framework_ancestors_resolved() {
        let model = Aum::build(&demo_apk(), &framework(), &ExploreConfig::saintdroid());
        assert_eq!(
            model
                .framework_ancestor(&ClassName::new("p.Main"))
                .map(ClassName::as_str),
            Some("android.app.Activity")
        );
        // Every class bottoms out at java.lang.Object, which the
        // framework model provides — so even plain utility classes have
        // a framework ancestor (their methods just never match an API).
        assert_eq!(
            model
                .framework_ancestor(&ClassName::new("p.Util"))
                .map(ClassName::as_str),
            Some("java.lang.Object")
        );
    }

    #[test]
    fn declares_app_method_scans_all_classes() {
        let model = Aum::build(&demo_apk(), &framework(), &ExploreConfig::saintdroid());
        assert!(model.declares_app_method("onCreate", "(Landroid/os/Bundle;)V"));
        assert!(
            !model.declares_app_method("onRequestPermissionsResult", "(I[Ljava/lang/String;[I)V")
        );
    }

    #[test]
    fn target_is_clamped() {
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(33)).build();
        let model = Aum::build(&apk, &framework(), &ExploreConfig::saintdroid());
        assert_eq!(model.target, ApiLevel::new(29));
    }
}
