//! Analysis reports: mismatches plus resource accounting.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use saint_analysis::LoadMeter;
use serde::{Deserialize, Serialize};

use crate::detector::Family;
use crate::error::ScanError;
use crate::mismatch::{Mismatch, MismatchKind};

/// Version of the report schema: the set of mismatch kinds a complete
/// report can carry plus the report's field shape. Bumped whenever a
/// detector family is added or a kind's meaning changes, so cached
/// artifacts produced under an older schema can never be replayed as
/// complete reports (the incremental layer folds this into every
/// content key *and* its store header — see `saint-delta`).
///
/// History: 1 = the paper's three AMD families; 2 = declared-SDK
/// consistency (DSD) kinds added.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// The outcome of analyzing one app with one detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The analyzed app's package id.
    pub package: String,
    /// Name of the detector that produced this report.
    pub detector: String,
    /// All detected mismatches, deduplicated.
    pub mismatches: Vec<Mismatch>,
    /// Wall-clock analysis time.
    pub duration: Duration,
    /// What the analysis materialized (classes, methods, bytes) — the
    /// Figure-4 quantity.
    pub meter: LoadMeter,
    /// Failures demoted to report entries by the engine's panic
    /// isolation. A report with entries here is *partial*: the scan
    /// did not finish, and its mismatch set must not be trusted as
    /// complete. Empty on every successful scan.
    pub errors: Vec<ScanError>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(package: impl Into<String>, detector: impl Into<String>) -> Self {
        Report {
            package: package.into(),
            detector: detector.into(),
            mismatches: Vec::new(),
            duration: Duration::ZERO,
            meter: LoadMeter::new(),
            errors: Vec::new(),
        }
    }

    /// Creates a report that records only a scan failure — what the
    /// engine hands back when a whole scan panicked and there is no
    /// partial result to salvage.
    #[must_use]
    pub fn from_error(
        package: impl Into<String>,
        detector: impl Into<String>,
        error: ScanError,
    ) -> Self {
        let mut report = Report::new(package, detector);
        report.errors.push(error);
        report
    }

    /// Whether the scan behind this report failed partway through.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Adds mismatches, dropping duplicates (same kind, site, API and
    /// permission) and merging their missing-level sets. Duplicates are
    /// found through a `dedup_key() → index` side table (O(1) per
    /// addition instead of a linear scan over everything added so far);
    /// output order and merge semantics are unchanged.
    pub fn extend_deduped(&mut self, additions: impl IntoIterator<Item = Mismatch>) {
        let mut index: HashMap<_, usize> = HashMap::with_capacity(self.mismatches.len());
        for (i, m) in self.mismatches.iter().enumerate() {
            // First index wins, matching the linear scan this replaces.
            index.entry(m.dedup_key()).or_insert(i);
        }
        for add in additions {
            let key = add.dedup_key();
            if let Some(&i) = index.get(&key) {
                let existing = &mut self.mismatches[i];
                let mut levels: BTreeSet<_> = existing.missing_levels.iter().copied().collect();
                levels.extend(add.missing_levels.iter().copied());
                existing.missing_levels = levels.into_iter().collect();
                if existing.via.len() > add.via.len() {
                    existing.via = add.via;
                }
            } else {
                index.insert(key, self.mismatches.len());
                self.mismatches.push(add);
            }
        }
    }

    /// Number of mismatches of a kind.
    #[must_use]
    pub fn count(&self, kind: MismatchKind) -> usize {
        self.mismatches.iter().filter(|m| m.kind == kind).count()
    }

    /// Number of mismatches of any kind in `family`.
    #[must_use]
    pub fn family_count(&self, family: Family) -> usize {
        self.mismatches
            .iter()
            .filter(|m| m.kind.family() == family)
            .count()
    }

    /// Total mismatches.
    #[must_use]
    pub fn total(&self) -> usize {
        self.mismatches.len()
    }

    /// Whether the report flags any issue.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Mismatches of one kind.
    pub fn of_kind(&self, kind: MismatchKind) -> impl Iterator<Item = &Mismatch> {
        self.mismatches.iter().filter(move |m| m.kind == kind)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {}: {} mismatches (",
            self.detector,
            self.package,
            self.total()
        )?;
        for (i, family) in Family::ALL.into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(f, "{sep}{family} {}", self.family_count(family))?;
        }
        writeln!(f, ") in {:.1?} [{}]", self.duration, self.meter)?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        for e in &self.errors {
            writeln!(f, "  ERROR {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::spec::LifeSpan;
    use saint_ir::{ApiLevel, MethodRef};

    fn mismatch(site: &str, levels: &[u8]) -> Mismatch {
        Mismatch {
            kind: MismatchKind::ApiInvocation,
            site: MethodRef::new("p.C", site, "()V"),
            api: MethodRef::new("android.x.Y", "api", "()V"),
            api_life: Some(LifeSpan::since(23)),
            missing_levels: levels.iter().map(|&l| ApiLevel::new(l)).collect(),
            context: None,
            permission: None,
            via: Vec::new(),
        }
    }

    #[test]
    fn dedup_merges_levels() {
        let mut r = Report::new("p", "saintdroid");
        r.extend_deduped([mismatch("m", &[21, 22]), mismatch("m", &[22, 24])]);
        assert_eq!(r.total(), 1);
        assert_eq!(
            r.mismatches[0].missing_levels,
            vec![ApiLevel::new(21), ApiLevel::new(22), ApiLevel::new(24)]
        );
    }

    #[test]
    fn distinct_sites_kept() {
        let mut r = Report::new("p", "saintdroid");
        r.extend_deduped([mismatch("m1", &[21]), mismatch("m2", &[21])]);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn dedup_prefers_shortest_chain() {
        let mut deep = mismatch("m", &[21]);
        deep.via = vec![MethodRef::new("a.B", "hop", "()V")];
        let direct = mismatch("m", &[21]);
        let mut r = Report::new("p", "saintdroid");
        r.extend_deduped([deep, direct]);
        assert_eq!(r.total(), 1);
        assert!(!r.mismatches[0].is_deep());
    }

    #[test]
    fn counters_by_kind() {
        let mut r = Report::new("p", "saintdroid");
        let mut apc = mismatch("m", &[21]);
        apc.kind = MismatchKind::ApiCallback;
        let mut prm = mismatch("m2", &[]);
        prm.kind = MismatchKind::PermissionRevocation;
        r.extend_deduped([mismatch("m0", &[21]), apc, prm]);
        assert_eq!(r.family_count(Family::Api), 1);
        assert_eq!(r.family_count(Family::Apc), 1);
        assert_eq!(r.family_count(Family::Prm), 1);
        assert_eq!(r.family_count(Family::Dsd), 0);
        assert_eq!(r.total(), 3);
        assert!(!r.is_clean());
    }

    #[test]
    fn display_includes_detector_and_counts() {
        let mut r = Report::new("com.example", "saintdroid");
        r.extend_deduped([mismatch("m", &[21])]);
        let s = r.to_string();
        assert!(s.contains("saintdroid on com.example"));
        // CI smokes grep and diff this header; pin its exact shape.
        assert!(s.contains("(API 1, APC 0, PRM 0, DSD 0)"), "{s}");
    }
}
