//! The assembled framework: spec + mined database + permission map +
//! per-level classes materialized on request.
//!
//! [`AndroidFramework`] is the artifact shared across all app analyses:
//! the database, permission map and spec fingerprint are built
//! **once** per framework
//! (paper §III-B, "the API database is constructed once for a given
//! framework … as a reusable model"), while class *bodies* are
//! materialized per `(level, class)` on request — the on-demand path
//! the CLVM rides. Eager baselines (CID) request every class up front
//! instead, through the CLVM's `load_everything`. The framework keeps
//! no class bodies: sharing them across apps is the job of a batch
//! engine's `ShardedClassCache` (saint-analysis), so a tool built
//! without one pays for the framework code it loads, per app.

use std::sync::{Arc, OnceLock};

use saint_ir::{ApiLevel, ClassDef, ClassName};

use crate::database::ApiDatabase;
use crate::fingerprint::spec_fingerprint;
use crate::permissions::PermissionMap;
use crate::spec::FrameworkSpec;
use crate::synth::SynthConfig;

/// An alternative origin for materialized framework classes.
///
/// A source answers `Some(answer)` when it is authoritative for
/// `(level, name)` — `Some(None)` meaning "the class does not exist at
/// that level" — and `None` when it has no opinion, in which case the
/// framework falls back to materializing from its spec. The frozen
/// artifact layer installs one of these so class bodies come from an
/// mmapped image instead of the spec materializer.
pub trait ClassSource: Send + Sync {
    /// The class as it exists at `level`, if this source is
    /// authoritative for it.
    fn class_at(&self, level: ApiLevel, name: &ClassName) -> Option<Option<Arc<ClassDef>>>;
}

/// A ready-to-analyze Android framework model.
pub struct AndroidFramework {
    spec: FrameworkSpec,
    database: OnceLock<Arc<ApiDatabase>>,
    permissions: OnceLock<Arc<PermissionMap>>,
    class_source: OnceLock<Arc<dyn ClassSource>>,
    fingerprint: OnceLock<u64>,
}

impl AndroidFramework {
    /// Wraps an arbitrary spec.
    #[must_use]
    pub fn from_spec(spec: FrameworkSpec) -> Self {
        AndroidFramework {
            spec,
            database: OnceLock::new(),
            permissions: OnceLock::new(),
            class_source: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The curated surface only — fast, used by most unit tests.
    #[must_use]
    pub fn curated() -> Self {
        Self::from_spec(crate::android::android_spec())
    }

    /// Curated surface plus a synthetic expansion.
    #[must_use]
    pub fn with_scale(cfg: &SynthConfig) -> Self {
        Self::from_spec(crate::synth::expanded_android_spec(cfg))
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &FrameworkSpec {
        &self.spec
    }

    /// The mined API database (mined on first use, then shared).
    #[must_use]
    pub fn database(&self) -> Arc<ApiDatabase> {
        Arc::clone(
            self.database
                .get_or_init(|| Arc::new(ApiDatabase::mine(&self.spec))),
        )
    }

    /// The PScout-style permission map (built on first use, then
    /// shared).
    #[must_use]
    pub fn permission_map(&self) -> Arc<PermissionMap> {
        Arc::clone(
            self.permissions
                .get_or_init(|| Arc::new(PermissionMap::from_spec(&self.spec))),
        )
    }

    /// The spec's content fingerprint ([`spec_fingerprint`]), computed
    /// on first use and then shared: the spec never changes after
    /// construction, so one walk serves every later scan.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| spec_fingerprint(&self.spec))
    }

    /// Seeds the database slot with an externally reconstructed
    /// database (e.g. decoded from a frozen artifact), so the first
    /// [`AndroidFramework::database`] call never mines. Returns `false`
    /// if the slot was already populated (the seed is dropped).
    pub fn seed_database(&self, db: Arc<ApiDatabase>) -> bool {
        self.database.set(db).is_ok()
    }

    /// Seeds the permission-map slot. Returns `false` if the slot was
    /// already populated (the seed is dropped).
    pub fn seed_permission_map(&self, map: Arc<PermissionMap>) -> bool {
        self.permissions.set(map).is_ok()
    }

    /// Installs an alternative [`ClassSource`] consulted by
    /// [`AndroidFramework::class_at`] before the spec materializer.
    /// Returns `false` if a source was already installed (the new one
    /// is dropped).
    pub fn install_class_source(&self, source: Arc<dyn ClassSource>) -> bool {
        self.class_source.set(source).is_ok()
    }

    /// Materializes one framework class as it exists at `level`: from
    /// the installed [`ClassSource`] if it is authoritative for the
    /// class, else from the spec. Returns `None` for unknown classes or
    /// levels where the class does not exist.
    ///
    /// Nothing is cached here — every call materializes afresh.
    /// Callers that share classes across apps put a batch cache in
    /// front of this accessor.
    #[must_use]
    pub fn class_at(&self, level: ApiLevel, name: &ClassName) -> Option<Arc<ClassDef>> {
        self.class_source
            .get()
            .and_then(|src| src.class_at(level, name))
            .unwrap_or_else(|| self.spec.materialize_class(name, level).map(Arc::new))
    }

    /// Total number of classes in the spec (across all levels).
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.spec.len()
    }
}

impl std::fmt::Debug for AndroidFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AndroidFramework")
            .field("classes", &self.spec.len())
            .field("database_mined", &self.database.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_is_mined_once_and_shared() {
        let fw = AndroidFramework::curated();
        let a = fw.database();
        let b = fw.database();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fingerprint_is_memoized_spec_fingerprint() {
        let fw = AndroidFramework::with_scale(&SynthConfig::small());
        assert_eq!(fw.fingerprint(), spec_fingerprint(fw.spec()));
        assert_eq!(fw.fingerprint(), fw.fingerprint());
        assert_ne!(
            fw.fingerprint(),
            AndroidFramework::curated().fingerprint(),
            "different specs, different fingerprints"
        );
    }

    #[test]
    fn class_at_materializes_afresh_on_every_call() {
        let fw = AndroidFramework::curated();
        let name = ClassName::new("android.app.Activity");
        let a = fw.class_at(ApiLevel::new(28), &name).unwrap();
        let b = fw.class_at(ApiLevel::new(28), &name).unwrap();
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn per_level_views_differ() {
        let fw = AndroidFramework::curated();
        let name = ClassName::new("android.app.Activity");
        let old = fw.class_at(ApiLevel::new(10), &name).unwrap();
        let new = fw.class_at(ApiLevel::new(28), &name).unwrap();
        assert!(new.methods.len() > old.methods.len());
    }

    #[test]
    fn missing_class_is_none() {
        let fw = AndroidFramework::curated();
        let ghost = ClassName::new("android.no.Such");
        assert!(fw.class_at(ApiLevel::new(28), &ghost).is_none());
        assert!(fw.class_at(ApiLevel::new(28), &ghost).is_none());
    }

    #[test]
    fn seeded_database_shortcuts_mining() {
        let fw = AndroidFramework::curated();
        let seeded = Arc::new(ApiDatabase::mine(fw.spec()));
        assert!(fw.seed_database(Arc::clone(&seeded)));
        assert!(Arc::ptr_eq(&fw.database(), &seeded));
        // A second seed is rejected once the slot is filled.
        assert!(!fw.seed_database(Arc::new(ApiDatabase::default())));
        assert!(Arc::ptr_eq(&fw.database(), &seeded));
    }

    #[test]
    fn class_source_is_consulted_before_spec() {
        struct Fixed(Arc<ClassDef>);
        impl ClassSource for Fixed {
            fn class_at(
                &self,
                _level: ApiLevel,
                name: &ClassName,
            ) -> Option<Option<Arc<ClassDef>>> {
                (name.as_str() == "android.app.Activity").then(|| Some(Arc::clone(&self.0)))
            }
        }
        let fw = AndroidFramework::curated();
        let canned = Arc::new(ClassDef::new(
            "android.app.Activity",
            saint_ir::ClassOrigin::Framework,
        ));
        assert!(fw.install_class_source(Arc::new(Fixed(Arc::clone(&canned)))));
        let got = fw
            .class_at(ApiLevel::new(28), &ClassName::new("android.app.Activity"))
            .unwrap();
        assert!(Arc::ptr_eq(&got, &canned));
        // Names the source has no opinion on still fall back to the spec.
        assert!(fw
            .class_at(
                ApiLevel::new(28),
                &ClassName::new("android.app.NotificationChannel")
            )
            .is_some());
    }

    #[test]
    fn framework_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AndroidFramework>();
    }
}
