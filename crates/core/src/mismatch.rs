//! Mismatch taxonomy — paper Table I.
//!
//! | Mismatch | Abbr | App level | Device level | Results in |
//! |---|---|---|---|---|
//! | API invocation (App → API) | API | ≥ α | < α | app invokes method introduced/updated in α |
//! | API callback (API → App) | APC | ≥ α | < α | app overrides a callback introduced/updated in α |
//! | Permission-induced | PRM | ≥ 23 / < 23 | < 23 / ≥ 23 | app misuses runtime permission checking |
//! | Declared-SDK consistency (extension) | DSD | min SDK < α, unguarded | < α | declared SDK bounds contradict the APIs used (overuse / underuse) |
//!
//! The families themselves are the [`Family`] table;
//! [`MismatchKind::family`] maps each kind back to its row.

use std::fmt;

use saint_adf::spec::LifeSpan;
use saint_ir::{ApiLevel, LevelRange, MethodRef, Permission};
use serde::{Deserialize, Serialize};

use crate::detector::Family;

/// The concrete mismatch kinds SAINTDroid detects: the paper's three
/// AMD families plus the declared-SDK consistency (DSD) family added
/// by the vetting detector (Wu et al., *Scalable Online Vetting of
/// Android Apps*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MismatchKind {
    /// API invocation mismatch (abbr. **API**): the app calls a method
    /// that does not exist at some supported device level.
    ApiInvocation,
    /// API callback mismatch (abbr. **APC**): the app overrides a
    /// framework method that does not exist at some supported device
    /// level — the override is silently never invoked there.
    ApiCallback,
    /// Permission request mismatch (**PRM**): the app targets API ≥ 23
    /// and uses dangerous permissions without implementing the runtime
    /// request protocol.
    PermissionRequest,
    /// Permission revocation mismatch (**PRM**): the app targets API
    /// < 23 but uses dangerous permissions a ≥ 23 device lets the user
    /// revoke at any time.
    PermissionRevocation,
    /// Declared-SDK overuse (**DSD**): the app calls an API introduced
    /// after its declared `minSdkVersion` without an `SDK_INT` guard —
    /// a runtime crash on every supported device below the API's
    /// introduction level.
    DsdOveruse,
    /// Declared-SDK underuse (**DSD**): the declared SDK bounds are
    /// inconsistent with actual usage — `minSdkVersion` sits needlessly
    /// above every level the used APIs require, or a declared
    /// `maxSdkVersion` leaves a used API with no supported level at
    /// which it exists.
    DsdUnderuse,
}

impl MismatchKind {
    /// The family this kind belongs to — the inverse of
    /// [`Family::kinds`].
    #[must_use]
    pub const fn family(self) -> Family {
        match self {
            MismatchKind::ApiInvocation => Family::Api,
            MismatchKind::ApiCallback => Family::Apc,
            MismatchKind::PermissionRequest | MismatchKind::PermissionRevocation => Family::Prm,
            MismatchKind::DsdOveruse | MismatchKind::DsdUnderuse => Family::Dsd,
        }
    }
}

impl fmt::Display for MismatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MismatchKind::ApiInvocation => "API invocation mismatch",
            MismatchKind::ApiCallback => "API callback mismatch",
            MismatchKind::PermissionRequest => "permission request mismatch",
            MismatchKind::PermissionRevocation => "permission revocation mismatch",
            MismatchKind::DsdOveruse => "declared-SDK overuse",
            MismatchKind::DsdUnderuse => "declared-SDK underuse",
        };
        f.write_str(s)
    }
}

/// Figure 1 of the paper: whether a `(device level, API lifetime)`
/// pairing falls in a mismatch region — the device below the API's
/// introduction (backward incompatibility) or at/above its removal
/// (forward incompatibility).
#[must_use]
pub fn is_mismatch_region(device: ApiLevel, api: LifeSpan) -> bool {
    !api.exists_at(device)
}

/// One detected mismatch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mismatch {
    /// Mismatch kind.
    pub kind: MismatchKind,
    /// The app method where the issue is anchored: the method
    /// containing the offending call site (API/PRM) or the overriding
    /// method itself (APC).
    pub site: MethodRef,
    /// The framework API involved: the invoked method, the overridden
    /// callback, or the dangerous-permission-bearing API.
    pub api: MethodRef,
    /// The API's mined lifetime, when applicable.
    pub api_life: Option<LifeSpan>,
    /// Supported device levels at which the mismatch manifests.
    pub missing_levels: Vec<ApiLevel>,
    /// The (guard-refined) level range under which the site executes.
    pub context: Option<LevelRange>,
    /// The dangerous permission involved (PRM kinds only).
    pub permission: Option<Permission>,
    /// Call chain from the app method to the API for detections deeper
    /// than the first framework level; empty for direct calls.
    pub via: Vec<MethodRef>,
}

impl Mismatch {
    /// Whether this mismatch was found beyond the first framework call
    /// level (the capability CID lacks; paper §III-A).
    #[must_use]
    pub fn is_deep(&self) -> bool {
        !self.via.is_empty()
    }

    /// Deduplication key: two reports of the same kind at the same site
    /// against the same API/permission are the same finding.
    #[must_use]
    pub fn dedup_key(&self) -> (MismatchKind, MethodRef, MethodRef, Option<Permission>) {
        (
            self.kind,
            self.site.clone(),
            self.api.clone(),
            self.permission.clone(),
        )
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} -> {}", self.kind.family(), self.site, self.api)?;
        if let Some(p) = &self.permission {
            write!(f, " (permission {p})")?;
        }
        if !self.missing_levels.is_empty() {
            let levels: Vec<String> = self
                .missing_levels
                .iter()
                .map(ApiLevel::to_string)
                .collect();
            write!(f, " missing at levels {}", levels.join(","))?;
        }
        if self.is_deep() {
            write!(f, " via {} hops", self.via.len())?;
        }
        Ok(())
    }
}

/// Computes the supported levels at which an API with lifetime `life`
/// is missing, within `range`.
#[must_use]
pub fn missing_levels_in(range: LevelRange, life: LifeSpan) -> Vec<ApiLevel> {
    range.iter().filter(|&l| !life.exists_at(l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(kind: MismatchKind) -> Mismatch {
        Mismatch {
            kind,
            site: MethodRef::new("p.Main", "onCreate", "()V"),
            api: MethodRef::new("android.content.Context", "getColorStateList", "(I)V"),
            api_life: Some(LifeSpan::since(23)),
            missing_levels: vec![ApiLevel::new(21), ApiLevel::new(22)],
            context: None,
            permission: None,
            via: Vec::new(),
        }
    }

    #[test]
    fn taxonomy_abbreviations_match_table_1() {
        let abbr = |kind: MismatchKind| kind.family().name();
        assert_eq!(abbr(MismatchKind::ApiInvocation), "API");
        assert_eq!(abbr(MismatchKind::ApiCallback), "APC");
        assert_eq!(abbr(MismatchKind::PermissionRequest), "PRM");
        assert_eq!(abbr(MismatchKind::PermissionRevocation), "PRM");
        assert_eq!(abbr(MismatchKind::DsdOveruse), "DSD");
        assert_eq!(abbr(MismatchKind::DsdUnderuse), "DSD");
    }

    #[test]
    fn mismatch_region_figure_1() {
        // API introduced at 23: devices below are the red region.
        let api = LifeSpan::since(23);
        assert!(is_mismatch_region(ApiLevel::new(22), api));
        assert!(!is_mismatch_region(ApiLevel::new(23), api));
        // API removed at 23: devices at/above are the red region.
        let removed = LifeSpan::between(2, 23);
        assert!(!is_mismatch_region(ApiLevel::new(22), removed));
        assert!(is_mismatch_region(ApiLevel::new(23), removed));
    }

    #[test]
    fn missing_levels_backward_case() {
        let r = LevelRange::new(ApiLevel::new(21), ApiLevel::new(25));
        let missing = missing_levels_in(r, LifeSpan::since(23));
        assert_eq!(missing, vec![ApiLevel::new(21), ApiLevel::new(22)]);
    }

    #[test]
    fn missing_levels_forward_case() {
        let r = LevelRange::new(ApiLevel::new(21), ApiLevel::new(25));
        let missing = missing_levels_in(r, LifeSpan::between(2, 24));
        assert_eq!(missing, vec![ApiLevel::new(24), ApiLevel::new(25)]);
    }

    #[test]
    fn dedup_key_ignores_context() {
        let mut a = m(MismatchKind::ApiInvocation);
        let mut b = m(MismatchKind::ApiInvocation);
        a.context = Some(LevelRange::new(ApiLevel::new(21), ApiLevel::new(28)));
        b.context = Some(LevelRange::new(ApiLevel::new(21), ApiLevel::new(22)));
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn display_forms() {
        let s = m(MismatchKind::ApiInvocation).to_string();
        assert!(s.contains("[API]"));
        assert!(s.contains("missing at levels 21,22"));
    }

    #[test]
    fn serde_roundtrip() {
        let a = m(MismatchKind::ApiCallback);
        let json = serde_json::to_string(&a).unwrap();
        let back: Mismatch = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
