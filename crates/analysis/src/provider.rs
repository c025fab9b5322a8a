//! Class providers: where the CLVM finds class definitions.
//!
//! The paper's CLVM "mimics the class-loading behavior of the Android
//! Virtual Machine runtime" (§III-A): app classes come from the
//! install-time dex, late-bound classes from secondary dex payloads,
//! and framework classes from the platform. Each source is a
//! [`ClassProvider`]; the CLVM consults them in registration order,
//! like a class-loader delegation chain.

use std::collections::HashMap;
use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_ir::{ApiLevel, Apk, ClassDef, ClassName, DexFile};

use crate::cache::ShardedClassCache;

/// A source of class definitions.
pub trait ClassProvider: Send + Sync {
    /// Looks up a class by name. Implementations may materialize
    /// lazily; returning `None` means this provider does not know the
    /// class.
    fn find_class(&self, name: &ClassName) -> Option<Arc<ClassDef>>;

    /// Enumerates every class name this provider can serve. Used by
    /// *eager* analyzers (the monolithic baselines) and by the
    /// conservative late-binding scan over bundled payloads.
    fn class_names(&self) -> Vec<ClassName>;

    /// A short label for diagnostics.
    fn label(&self) -> &str;
}

/// An indexed dex: O(1) name lookup plus the original declaration
/// order (lookup must be fast — exploration probes every provider for
/// every unresolved name — but `class_names()` order is part of the
/// deterministic analysis contract, so a plain `HashMap` alone would
/// leak iteration-order nondeterminism into eager loading).
#[derive(Debug)]
struct IndexedClasses {
    by_name: HashMap<ClassName, Arc<ClassDef>>,
    order: Vec<ClassName>,
}

impl IndexedClasses {
    /// Indexes a dex's classes, sharing its `Arc`s rather than copying
    /// the definitions.
    fn from_dex(dex: &DexFile) -> Self {
        let mut by_name = HashMap::with_capacity(dex.len());
        let mut order = Vec::with_capacity(dex.len());
        for c in dex.shared_classes() {
            if by_name.insert(c.name.clone(), Arc::clone(c)).is_none() {
                order.push(c.name.clone());
            }
        }
        IndexedClasses { by_name, order }
    }

    fn find(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        self.by_name.get(name).map(Arc::clone)
    }

    fn names(&self) -> Vec<ClassName> {
        self.order.clone()
    }
}

/// Serves the primary (install-time) dex of an APK.
#[derive(Debug)]
pub struct PrimaryDexProvider {
    classes: IndexedClasses,
}

impl PrimaryDexProvider {
    /// Wraps the APK's `classes.dex`.
    #[must_use]
    pub fn new(apk: &Apk) -> Self {
        PrimaryDexProvider {
            classes: IndexedClasses::from_dex(&apk.primary),
        }
    }
}

impl ClassProvider for PrimaryDexProvider {
    fn find_class(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        self.classes.find(name)
    }

    fn class_names(&self) -> Vec<ClassName> {
        self.classes.names()
    }

    fn label(&self) -> &str {
        "classes.dex"
    }
}

/// Serves one secondary (late-bound) dex payload.
#[derive(Debug)]
pub struct SecondaryDexProvider {
    name: String,
    classes: IndexedClasses,
}

impl SecondaryDexProvider {
    /// Wraps a bundled payload dex.
    #[must_use]
    pub fn new(dex: &DexFile) -> Self {
        SecondaryDexProvider {
            name: dex.name.clone(),
            classes: IndexedClasses::from_dex(dex),
        }
    }
}

impl ClassProvider for SecondaryDexProvider {
    fn find_class(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        self.classes.find(name)
    }

    fn class_names(&self) -> Vec<ClassName> {
        self.classes.names()
    }

    fn label(&self) -> &str {
        &self.name
    }
}

/// Serves framework classes materialized on demand at a fixed API
/// level (the app's target level — the platform the app was compiled
/// against).
///
/// The provider itself keeps nothing: the CLVM's load table already
/// asks each provider at most once per class per app. A batch engine
/// attaches a process-wide [`ShardedClassCache`] via [`with_cache`]
/// (keyed by `(level, name)`) — the only place a materialized framework
/// class is shared — so identical framework classes materialize once
/// per batch rather than once per app. Without one, every app
/// materializes each class it loads, mirroring how every tool run in
/// the paper loads framework code for itself. Either way the per-app
/// [`LoadMeter`](crate::LoadMeter) accounting is unchanged: metering
/// happens in the CLVM on first per-app *load*, not here at
/// materialization, so an eager tool still pays for the whole platform
/// per app and a lazy one for its reachable slice.
///
/// [`with_cache`]: FrameworkProvider::with_cache
pub struct FrameworkProvider {
    framework: Arc<AndroidFramework>,
    level: ApiLevel,
    shared: Option<Arc<ShardedClassCache>>,
    metrics: Option<Arc<saint_obs::MetricsRegistry>>,
}

impl FrameworkProvider {
    /// Wraps a framework model at `level`; every lookup materializes.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>, level: ApiLevel) -> Self {
        FrameworkProvider {
            framework,
            level,
            shared: None,
            metrics: None,
        }
    }

    /// Wraps a framework model at `level`, serving materializations
    /// from (and into) a batch-wide shared cache.
    #[must_use]
    pub fn with_cache(
        framework: Arc<AndroidFramework>,
        level: ApiLevel,
        cache: Arc<ShardedClassCache>,
    ) -> Self {
        FrameworkProvider {
            shared: Some(cache),
            ..Self::new(framework, level)
        }
    }

    /// Attaches a metrics registry: each *actual* materialization — a
    /// lookup that has to build (or decode) the class body, which with
    /// a shared cache means a miss — is recorded as a
    /// [`Phase::ClvmLoad`](saint_obs::Phase::ClvmLoad) span.
    /// Shared-cache hits record nothing: handing out an `Arc` clone is
    /// not class-loading work, and billing it to the phase would hide
    /// exactly the effect batch-wide caches and frozen preloads exist
    /// to produce.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<saint_obs::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The level this provider materializes at.
    #[must_use]
    pub fn level(&self) -> ApiLevel {
        self.level
    }

    fn materialize(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        // Route through the framework accessor rather than the spec
        // directly: when a class source is installed (a frozen image),
        // it is authoritative — an engine booted from an image with an
        // empty spec must still serve every framework class. Without a
        // source this is exactly spec materialization, as before.
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let made = self.framework.class_at(self.level, name);
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            metrics.record(saint_obs::Phase::ClvmLoad, started.elapsed());
        }
        made
    }
}

impl ClassProvider for FrameworkProvider {
    fn find_class(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        match &self.shared {
            Some(shared) => shared.get_or_materialize(self.level, name, || self.materialize(name)),
            None => self.materialize(name),
        }
    }

    fn class_names(&self) -> Vec<ClassName> {
        self.framework
            .spec()
            .classes()
            .filter(|c| c.life.exists_at(self.level))
            .map(|c| c.name.clone())
            .collect()
    }

    fn label(&self) -> &str {
        "framework"
    }
}

impl std::fmt::Debug for FrameworkProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameworkProvider")
            .field("level", &self.level)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApkBuilder, ClassBuilder, ClassOrigin};

    fn apk_with_classes() -> Apk {
        let a = ClassBuilder::new("p.A", ClassOrigin::App).build();
        let b = ClassBuilder::new("p.B", ClassOrigin::App).build();
        ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(a)
            .unwrap()
            .class(b)
            .unwrap()
            .build()
    }

    #[test]
    fn primary_provider_serves_apk_classes() {
        let p = PrimaryDexProvider::new(&apk_with_classes());
        assert!(p.find_class(&ClassName::new("p.A")).is_some());
        assert!(p.find_class(&ClassName::new("p.Z")).is_none());
        assert_eq!(p.class_names().len(), 2);
    }

    #[test]
    fn dex_providers_share_the_dex_files_classes() {
        let apk = apk_with_classes();
        let providers: [Box<dyn ClassProvider>; 2] = [
            Box::new(PrimaryDexProvider::new(&apk)),
            Box::new(SecondaryDexProvider::new(&apk.primary)),
        ];
        for provider in &providers {
            for held in apk.primary.shared_classes() {
                let served = provider.find_class(&held.name).unwrap();
                assert!(
                    Arc::ptr_eq(&served, held),
                    "{} copied {}",
                    provider.label(),
                    held.name
                );
            }
        }
    }

    #[test]
    fn framework_provider_respects_level() {
        let fw = Arc::new(AndroidFramework::curated());
        let old = FrameworkProvider::new(Arc::clone(&fw), ApiLevel::new(10));
        let new = FrameworkProvider::new(fw, ApiLevel::new(28));
        let channel = ClassName::new("android.app.NotificationChannel");
        assert!(old.find_class(&channel).is_none());
        assert!(new.find_class(&channel).is_some());
        assert!(new.class_names().len() > old.class_names().len());
    }

    #[test]
    fn providers_are_object_safe() {
        let fw = Arc::new(AndroidFramework::curated());
        let providers: Vec<Box<dyn ClassProvider>> = vec![
            Box::new(PrimaryDexProvider::new(&apk_with_classes())),
            Box::new(FrameworkProvider::new(fw, ApiLevel::new(28))),
        ];
        assert_eq!(providers.len(), 2);
        assert_eq!(providers[0].label(), "classes.dex");
    }
}
