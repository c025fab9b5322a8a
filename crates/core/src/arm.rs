//! ARM — the Android Revision Modeler (paper §III-B).
//!
//! Wraps a framework model and exposes the two once-per-framework
//! artifacts every app analysis reuses: the mined [`ApiDatabase`] and
//! the PScout-style [`PermissionMap`]. Both are built lazily on first
//! use and shared thereafter — "the API database is constructed once
//! for a given framework … as a reusable model upon which the
//! compatibility analysis of all apps relies."

use std::sync::Arc;

use saint_adf::{AndroidFramework, ApiDatabase, PermissionMap};

/// The revision modeler.
#[derive(Debug, Clone)]
pub struct Arm {
    framework: Arc<AndroidFramework>,
}

impl Arm {
    /// Wraps a framework model.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Arm { framework }
    }

    /// The framework model itself.
    #[must_use]
    pub fn framework(&self) -> &Arc<AndroidFramework> {
        &self.framework
    }

    /// The mined API lifetime database.
    #[must_use]
    pub fn database(&self) -> Arc<ApiDatabase> {
        self.framework.database()
    }

    /// The method → permission map.
    #[must_use]
    pub fn permission_map(&self) -> Arc<PermissionMap> {
        self.framework.permission_map()
    }

    /// The framework spec's content fingerprint, computed once per
    /// framework like the database and permission map.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.framework.fingerprint()
    }

    /// Fetches both once-per-framework artifacts, recording the
    /// acquisition as one [`saint_obs::Phase::ArmMine`] span when a
    /// registry is attached. The first call per framework pays the
    /// actual mining cost; warm calls record near-zero spans — which is
    /// itself the observable signal that ARM reuse is working (the
    /// paper's "constructed once … reusable model" claim).
    #[must_use]
    pub fn mine(
        &self,
        metrics: Option<&saint_obs::MetricsRegistry>,
    ) -> (Arc<ApiDatabase>, Arc<PermissionMap>) {
        let fetch = || (self.framework.database(), self.framework.permission_map());
        match metrics {
            Some(metrics) => metrics.time(saint_obs::Phase::ArmMine, fetch),
            None => fetch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_shared_across_calls() {
        let arm = Arm::new(Arc::new(AndroidFramework::curated()));
        assert!(Arc::ptr_eq(&arm.database(), &arm.database()));
        assert!(Arc::ptr_eq(&arm.permission_map(), &arm.permission_map()));
    }
}
