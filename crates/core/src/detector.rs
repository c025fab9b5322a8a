//! The mismatch families, the detector set over them, and the common
//! detector interface shared by SAINTDroid and the baselines — the
//! shape behind the paper's Table IV capability matrix.

use saint_faults::FaultPoint;
use saint_ir::Apk;
use saint_obs::Phase;
use serde::Serialize;

use crate::mismatch::MismatchKind;
use crate::report::Report;

/// One mismatch family: the paper's three AMD families (Table I) plus
/// declared-SDK consistency (DSD). This enum is the one list of
/// families; everything that enumerates them reads [`Family::ALL`] and
/// the per-family lookups below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Family {
    /// API invocation mismatches (paper Algorithm 2).
    Api,
    /// API callback mismatches (paper Algorithm 3).
    Apc,
    /// Permission-induced mismatches (paper Algorithm 4).
    Prm,
    /// Declared-SDK consistency mismatches (DSD overuse/underuse).
    Dsd,
}

impl Family {
    /// Every family, in report and scoring order.
    pub const ALL: [Family; 4] = [Family::Api, Family::Apc, Family::Prm, Family::Dsd];

    /// The three-letter abbreviation (`API`, `APC`, `PRM`, `DSD`) used
    /// in report text, journals and the capability matrix.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Family::Api => "API",
            Family::Apc => "APC",
            Family::Prm => "PRM",
            Family::Dsd => "DSD",
        }
    }

    /// The family's token in the [`DetectorSet`] spec syntax.
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            Family::Api => "api",
            Family::Apc => "apc",
            Family::Prm => "prm",
            Family::Dsd => "dsd",
        }
    }

    /// The mismatch kinds this family groups.
    #[must_use]
    pub const fn kinds(self) -> &'static [MismatchKind] {
        match self {
            Family::Api => &[MismatchKind::ApiInvocation],
            Family::Apc => &[MismatchKind::ApiCallback],
            Family::Prm => &[
                MismatchKind::PermissionRequest,
                MismatchKind::PermissionRevocation,
            ],
            Family::Dsd => &[MismatchKind::DsdOveruse, MismatchKind::DsdUnderuse],
        }
    }

    /// The phase span one run of the family's detector records.
    #[must_use]
    pub const fn phase(self) -> Phase {
        match self {
            Family::Api => Phase::DetectInvocation,
            Family::Apc => Phase::DetectCallback,
            Family::Prm => Phase::DetectPermission,
            Family::Dsd => Phase::DetectDeclaredSdk,
        }
    }

    /// The fault-injection point at the entry of the family's detector.
    #[must_use]
    pub const fn fault_point(self) -> FaultPoint {
        match self {
            Family::Api => FaultPoint::DetectInvocation,
            Family::Apc => FaultPoint::DetectCallback,
            Family::Prm => FaultPoint::DetectPermission,
            Family::Dsd => FaultPoint::DetectDeclaredSdk,
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of detector families one [`SaintDroid`](crate::SaintDroid)
/// instance runs (or one baseline covers), as a compact bitset with
/// one bit per [`Family`]. The set is part of a scan's *identity*: the
/// incremental layer folds [`bits`](Self::bits) into every content
/// key, and the daemon advertises it so clients can pin the families
/// they expect a report to cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectorSet {
    bits: u8,
}

impl DetectorSet {
    /// The API invocation detector (paper Algorithm 2).
    pub const INVOCATION: DetectorSet = DetectorSet::of(Family::Api);
    /// The API callback detector (paper Algorithm 3).
    pub const CALLBACK: DetectorSet = DetectorSet::of(Family::Apc);
    /// The permission-induced detector (paper Algorithm 4).
    pub const PERMISSION: DetectorSet = DetectorSet::of(Family::Prm);
    /// The declared-SDK consistency detector (DSD overuse/underuse).
    pub const DECLARED_SDK: DetectorSet = DetectorSet::of(Family::Dsd);

    /// The set holding one family.
    #[must_use]
    pub const fn of(family: Family) -> Self {
        DetectorSet {
            bits: 1 << family as u8,
        }
    }

    /// The paper's three AMD families — the default set, preserving
    /// the original report surface byte-for-byte.
    #[must_use]
    pub fn amd() -> Self {
        Self::INVOCATION | Self::CALLBACK | Self::PERMISSION
    }

    /// Every family, the declared-SDK detector included.
    #[must_use]
    pub fn all() -> Self {
        Self::amd() | Self::DECLARED_SDK
    }

    /// The raw bitmask — what the incremental layer folds into content
    /// keys (a changed set must never replay another set's artifacts).
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.bits
    }

    /// Whether every family in `other` is enabled in `self`.
    #[must_use]
    pub const fn contains(self, other: DetectorSet) -> bool {
        self.bits & other.bits == other.bits
    }

    /// Whether `family` is enabled.
    #[must_use]
    pub const fn has(self, family: Family) -> bool {
        self.contains(Self::of(family))
    }

    /// The enabled families, in [`Family::ALL`] order.
    pub fn families(self) -> impl Iterator<Item = Family> {
        Family::ALL.into_iter().filter(move |&f| self.has(f))
    }

    /// Parses the CLI/wire form: `amd`, `all`, or a comma-separated
    /// list of family tokens (`api`, `apc`, `prm`, `dsd`; the canonical
    /// [`Display`](std::fmt::Display) rendering round-trips).
    ///
    /// # Errors
    ///
    /// Returns the offending token on anything unrecognized, the empty
    /// string included — so a parsed set is never empty.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "amd" => return Ok(Self::amd()),
            "all" => return Ok(Self::all()),
            _ => {}
        }
        s.split(',')
            .try_fold(DetectorSet { bits: 0 }, |set, token| {
                let token = token.trim();
                Family::ALL
                    .into_iter()
                    .find(|f| f.token() == token)
                    .map(|f| set | Self::of(f))
                    .ok_or_else(|| format!("unknown detector family `{token}`"))
            })
    }
}

impl Default for DetectorSet {
    fn default() -> Self {
        Self::amd()
    }
}

impl std::ops::BitOr for DetectorSet {
    type Output = DetectorSet;
    fn bitor(self, rhs: DetectorSet) -> DetectorSet {
        DetectorSet {
            bits: self.bits | rhs.bits,
        }
    }
}

impl std::fmt::Display for DetectorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, family) in self.families().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(family.token())?;
        }
        Ok(())
    }
}

/// A compatibility-issue detector over APKs.
pub trait CompatDetector {
    /// The tool's display name (`SAINTDroid`, `CID`, `CIDER`, `Lint`).
    fn name(&self) -> &'static str;

    /// Which mismatch families the tool covers (its Table IV row).
    fn capabilities(&self) -> DetectorSet;

    /// Whether the tool needs buildable app source (LINT does; paper
    /// §IV-A excluded eight benchmark apps for it).
    fn requires_source(&self) -> bool {
        false
    }

    /// Analyzes one APK and reports mismatches plus resource usage.
    /// Tools that cannot analyze the app (e.g. missing source) return
    /// `None` — the dashes in the paper's tables.
    fn analyze(&self, apk: &Apk) -> Option<Report>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_table_is_consistent() {
        let all_kinds = [
            MismatchKind::ApiInvocation,
            MismatchKind::ApiCallback,
            MismatchKind::PermissionRequest,
            MismatchKind::PermissionRevocation,
            MismatchKind::DsdOveruse,
            MismatchKind::DsdUnderuse,
        ];
        for kind in all_kinds {
            let owners: Vec<Family> = Family::ALL
                .into_iter()
                .filter(|f| f.kinds().contains(&kind))
                .collect();
            assert_eq!(owners, vec![kind.family()], "{kind:?}");
        }
        for f in Family::ALL {
            assert_eq!(DetectorSet::parse(f.token()), Ok(DetectorSet::of(f)));
            assert_eq!(f.phase().name(), f.fault_point().name(), "{f}");
        }
    }

    #[test]
    fn detector_set_parse_and_display_round_trip() {
        assert_eq!(DetectorSet::parse("amd").unwrap(), DetectorSet::amd());
        assert_eq!(DetectorSet::parse("all").unwrap(), DetectorSet::all());
        let set = DetectorSet::parse("api,dsd").unwrap();
        assert!(set.has(Family::Api));
        assert!(set.has(Family::Dsd));
        assert!(!set.has(Family::Apc));
        assert_eq!(set.to_string(), "api,dsd");
        assert_eq!(DetectorSet::parse(&set.to_string()).unwrap(), set);
        assert!(DetectorSet::parse("bogus").is_err());
        assert!(DetectorSet::parse("").is_err());
    }

    #[test]
    fn detector_set_default_is_the_paper_families() {
        let d = DetectorSet::default();
        assert_eq!(d, DetectorSet::amd());
        assert!(!d.has(Family::Dsd));
        assert_eq!(d.to_string(), "api,apc,prm");
        // The bit layout is part of delta-key identity; pin it.
        assert_eq!(DetectorSet::amd().bits(), 0b0111);
        assert_eq!(DetectorSet::all().bits(), 0b1111);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _take(_: &dyn CompatDetector) {}
    }
}
