//! Version-lineage scanning and evolution reports.
//!
//! The related work's evolution-aware angle: given an app's version
//! history, scan oldest-first (each version's scan warms the artifact
//! store for the next — consecutive versions share most classes) and
//! report *when* each mismatch was introduced and, if ever, fixed.

use saint_ir::Apk;
use saintdroid::{Report, SaintDroid};

use crate::scanner::{DeltaScanner, DeltaStats};

/// One scanned version of the lineage.
#[derive(Debug, Clone)]
pub struct VersionScan {
    /// Caller-supplied version label (e.g. the file name).
    pub label: String,
    /// The version's full scan report.
    pub report: Report,
    /// What the scan reused from earlier versions.
    pub stats: DeltaStats,
}

/// The life of one distinct mismatch across the lineage. Identity is
/// the detector's dedup key (kind + site + api + permission); a
/// mismatch that disappears and later returns gets a fresh entry.
#[derive(Debug, Clone)]
pub struct EvolutionEntry {
    /// Human-readable identity: `kind site -> api [permission]`.
    pub key: String,
    /// Label of the first version exhibiting the mismatch.
    pub introduced: String,
    /// Label of the first later version *not* exhibiting it, if any.
    pub fixed: Option<String>,
}

/// Everything a lineage scan produced.
#[derive(Debug, Clone)]
pub struct EvolutionReport {
    /// Per-version scans, oldest first.
    pub versions: Vec<VersionScan>,
    /// Mismatch lifetimes, in order of first introduction (ties in
    /// report order).
    pub entries: Vec<EvolutionEntry>,
}

impl EvolutionReport {
    /// Total mismatches across the newest version (the lineage's
    /// current exposure).
    #[must_use]
    pub fn current_mismatches(&self) -> usize {
        self.versions
            .last()
            .map_or(0, |v| v.report.mismatches.len())
    }
}

/// Scans `versions` oldest-first through `scanner`, reusing artifacts
/// across versions, and derives the evolution entries. Each version is
/// `(label, container bytes, decoded app)`; the bytes must be the
/// canonical encoding of the app (a `.sapk` file's contents), as
/// [`DeltaScanner::scan_encoded`] requires.
#[must_use]
pub fn scan_history(
    scanner: &DeltaScanner,
    tool: &SaintDroid,
    versions: &[(String, Vec<u8>, Apk)],
    app_jobs: usize,
) -> EvolutionReport {
    let mut scans = Vec::with_capacity(versions.len());
    let mut entries: Vec<EvolutionEntry> = Vec::new();
    // Open entry per live identity: index into `entries`.
    let mut open: std::collections::HashMap<String, usize> = std::collections::HashMap::new();

    for (label, sapk, apk) in versions {
        let (report, stats) = scanner.scan_encoded(tool, sapk, apk, app_jobs);

        let mut present: std::collections::HashSet<String> = std::collections::HashSet::new();
        for m in &report.mismatches {
            let key = identity(m);
            present.insert(key.clone());
            if !open.contains_key(&key) {
                open.insert(key.clone(), entries.len());
                entries.push(EvolutionEntry {
                    key,
                    introduced: label.clone(),
                    fixed: None,
                });
            }
        }
        // Anything open but absent from this version was fixed here.
        let fixed_now: Vec<String> = open
            .keys()
            .filter(|k| !present.contains(*k))
            .cloned()
            .collect();
        for key in fixed_now {
            if let Some(i) = open.remove(&key) {
                entries[i].fixed = Some(label.clone());
            }
        }

        scans.push(VersionScan {
            label: label.clone(),
            report,
            stats,
        });
    }

    EvolutionReport {
        versions: scans,
        entries,
    }
}

/// Stable, human-readable mismatch identity across versions — the same
/// fields as [`Mismatch::dedup_key`](saintdroid::Mismatch::dedup_key).
fn identity(m: &saintdroid::Mismatch) -> String {
    let perm = m
        .permission
        .as_ref()
        .map(|p| format!(" [{p}]"))
        .unwrap_or_default();
    format!("{:?} {} -> {}{}", m.kind, m.site, m.api, perm)
}
