//! The verdict oracle: reference digests and recall against the
//! generator's injected ground truth.
//!
//! A report's digest covers everything a report says except its
//! wall-clock `duration`: package, detector, every mismatch, the
//! metered load footprint and any scan errors. The reference digests
//! come from `SaintDroid::run` on a tool without shared caches and
//! with one intra-app worker, an execution path independent of the
//! batch engine, the frozen images, the daemon and the delta store.

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_corpus::InjectedCounts;
use saint_frozen::{fnv1a, FNV_OFFSET};
use saintdroid::engine::par_map;
use saintdroid::{DetectorSet, MismatchKind, Report, SaintDroid};
use serde::{Deserialize, Serialize};

/// FNV-1a digest of a report with its `duration` zeroed, as 16 hex
/// digits.
#[must_use]
pub fn digest(report: &Report) -> String {
    let mut timeless = report.clone();
    timeless.duration = std::time::Duration::ZERO;
    let json = serde_json::to_string(&timeless).expect("reports serialize");
    format!("{:016x}", fnv1a(json.as_bytes(), FNV_OFFSET))
}

/// Reported findings per family the generator plants: API invocation,
/// API callback, and permission (request + revocation).
#[must_use]
pub fn findings(report: &Report) -> [u64; 3] {
    [
        report.count(MismatchKind::ApiInvocation) as u64,
        report.count(MismatchKind::ApiCallback) as u64,
        (report.count(MismatchKind::PermissionRequest)
            + report.count(MismatchKind::PermissionRevocation)) as u64,
    ]
}

/// Planted findings per family, in [`findings`] order.
fn planted(injected: &InjectedCounts) -> [u64; 3] {
    [
        injected.api as u64,
        injected.apc as u64,
        (injected.prm_request + injected.prm_revocation) as u64,
    ]
}

/// Share of planted findings that were reported, in percent: per app
/// and family a report recovers at most what was planted, so extra
/// findings never raise recall.
#[must_use]
pub fn recall_pct<'a>(pairs: impl IntoIterator<Item = (&'a [u64; 3], &'a InjectedCounts)>) -> f64 {
    let (mut hit, mut total) = (0u64, 0u64);
    for (reported, injected) in pairs {
        for (r, p) in reported.iter().zip(planted(injected)) {
            hit += (*r).min(p);
            total += p;
        }
    }
    if total == 0 {
        100.0
    } else {
        100.0 * hit as f64 / total as f64
    }
}

/// One scan outcome as a child process reports it to its parent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Output {
    /// The input file, relative to the input directory.
    pub input: String,
    /// Report digest; empty when the scan failed.
    pub digest: String,
    /// Why the scan produced no report, if it did not.
    pub error: Option<String>,
    /// [`findings`] of the report.
    pub findings: Vec<u64>,
}

impl Output {
    /// The outcome of a completed scan.
    #[must_use]
    pub fn of(input: &str, report: &Report) -> Self {
        Output {
            input: input.to_string(),
            digest: digest(report),
            error: None,
            findings: findings(report).to_vec(),
        }
    }

    /// A scan that failed before producing a report.
    #[must_use]
    pub fn failed(input: &str, error: impl Into<String>) -> Self {
        Output {
            input: input.to_string(),
            digest: String::new(),
            error: Some(error.into()),
            findings: Vec::new(),
        }
    }
}

/// Reference reports for `apks`, in input order. Apps are spread over
/// `jobs` threads; each runs the plain single-worker pipeline on its
/// own, sharing nothing, so the split cannot change a report.
#[must_use]
pub fn reference_reports(
    framework: &Arc<AndroidFramework>,
    detectors: DetectorSet,
    apks: &[saint_ir::Apk],
    jobs: usize,
) -> Vec<Report> {
    let tool = SaintDroid::new(Arc::clone(framework)).with_detectors(detectors);
    par_map(jobs, apks, |_, apk| tool.run(apk))
}
