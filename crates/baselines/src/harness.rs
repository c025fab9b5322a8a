//! The comparative-analysis harness.
//!
//! Runs every detector of the tool matrix against a labeled
//! ground-truth corpus and tallies per-family precision/recall/F1 —
//! the machinery behind `saintdroid compare` and the CI recall floor.
//! Tools are scored only on the families their
//! [`capabilities`](saintdroid::CompatDetector::capabilities) claim
//! (the dashes in the paper's Table II): CID is never penalized for
//! missing a callback defect it does not look for, and only the
//! DSD-enabled SAINTDroid row is scored on the declared-SDK family.

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_corpus::{score, Accuracy, BenchApp};
use saintdroid::{CompatDetector, DetectorSet, Family, SaintDroid};
use serde::Serialize;

use crate::{Cid, Cider, Lint};

/// One tool's tally on one family, with the derived rates denormalized
/// for the JSON artifact.
#[derive(Debug, Clone, Serialize)]
pub struct FamilyScore {
    /// Family column (serialized as its variant name, e.g. `"Api"`).
    pub family: Family,
    /// Raw confusion tally over the whole corpus.
    pub accuracy: Accuracy,
    /// `Accuracy::precision`, denormalized.
    pub precision: f64,
    /// `Accuracy::recall`, denormalized.
    pub recall: f64,
    /// `Accuracy::f_measure`, denormalized.
    pub f1: f64,
}

impl FamilyScore {
    fn of(family: Family, accuracy: Accuracy) -> Self {
        FamilyScore {
            family,
            accuracy,
            precision: accuracy.precision(),
            recall: accuracy.recall(),
            f1: accuracy.f_measure(),
        }
    }
}

/// One tool's row of the comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ToolRow {
    /// Tool display name.
    pub tool: String,
    /// Apps the tool could not analyze at all (missing source — the
    /// dashes of the paper's tables). Skipped apps do not count
    /// against recall.
    pub skipped_apps: usize,
    /// Per-family scores, covered families only.
    pub families: Vec<FamilyScore>,
    /// Sum over the covered families.
    pub overall: Accuracy,
}

/// The full comparison artifact (`BENCH_compare.json`).
#[derive(Debug, Clone, Serialize)]
pub struct Comparison {
    /// Corpus label (e.g. `planted`, `benchmark`).
    pub corpus: String,
    /// Apps scored.
    pub apps: usize,
    /// One row per tool, SAINTDroid first.
    pub tools: Vec<ToolRow>,
}

impl Comparison {
    /// The row for `tool`, if it ran.
    #[must_use]
    pub fn row(&self, tool: &str) -> Option<&ToolRow> {
        self.tools.iter().find(|r| r.tool == tool)
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "corpus {} ({} apps)", self.corpus, self.apps)?;
        for row in &self.tools {
            write!(f, "  {:<10}", row.tool)?;
            for fam in &row.families {
                write!(
                    f,
                    " {} P {:.0}% R {:.0}% F1 {:.0}% |",
                    fam.family,
                    fam.precision * 100.0,
                    fam.recall * 100.0,
                    fam.f1 * 100.0
                )?;
            }
            if row.skipped_apps > 0 {
                write!(f, " ({} apps skipped)", row.skipped_apps)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The tool matrix the comparison runs: SAINTDroid with **all four**
/// families enabled (the comparison is where the DSD family earns its
/// keep), then the three baselines as published.
#[must_use]
pub fn comparison_detectors(framework: &Arc<AndroidFramework>) -> Vec<Box<dyn CompatDetector>> {
    vec![
        Box::new(SaintDroid::new(Arc::clone(framework)).with_detectors(DetectorSet::all())),
        Box::new(Cid::new(Arc::clone(framework))),
        Box::new(Cider::new(Arc::clone(framework))),
        Box::new(Lint::new(Arc::clone(framework))),
    ]
}

/// Runs the full tool matrix over `apps` and tallies per-family
/// accuracy. Each tool is scored only on families it claims; apps a
/// tool cannot analyze (source-requiring tools on source-less apps)
/// are counted in `skipped_apps` and excluded from its tallies.
#[must_use]
pub fn compare(
    corpus: impl Into<String>,
    framework: &Arc<AndroidFramework>,
    apps: &[BenchApp],
) -> Comparison {
    let mut tools = Vec::new();
    for tool in comparison_detectors(framework) {
        let covered: Vec<Family> = tool.capabilities().families().collect();
        let mut tallies = vec![Accuracy::default(); covered.len()];
        let mut skipped = 0usize;
        for app in apps {
            let Some(report) = tool.analyze(&app.apk) else {
                skipped += 1;
                continue;
            };
            for (slot, family) in covered.iter().enumerate() {
                tallies[slot].absorb(score(&report, &app.truth, Some(family.kinds())));
            }
        }
        let mut overall = Accuracy::default();
        for t in &tallies {
            overall.absorb(*t);
        }
        tools.push(ToolRow {
            tool: tool.name().to_string(),
            skipped_apps: skipped,
            families: covered
                .into_iter()
                .zip(tallies)
                .map(|(f, a)| FamilyScore::of(f, a))
                .collect(),
            overall,
        });
    }
    Comparison {
        corpus: corpus.into(),
        apps: apps.len(),
        tools,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_corpus::planted_suite;

    fn planted_comparison() -> Comparison {
        let fw = Arc::new(AndroidFramework::curated());
        compare("planted", &fw, &planted_suite())
    }

    #[test]
    fn family_coverage_follows_capabilities() {
        let cmp = planted_comparison();
        let fams = |tool: &str| -> Vec<Family> {
            cmp.row(tool)
                .expect(tool)
                .families
                .iter()
                .map(|f| f.family)
                .collect()
        };
        assert_eq!(fams("SAINTDroid"), Family::ALL.to_vec());
        assert_eq!(fams("CID"), vec![Family::Api]);
        assert_eq!(fams("CIDER"), vec![Family::Apc]);
        assert_eq!(fams("Lint"), vec![Family::Api]);
    }

    /// The golden pin: on the planted corpus, the DSD-enabled
    /// SAINTDroid row is exact on every family.
    #[test]
    fn saintdroid_is_exact_on_the_planted_corpus() {
        let cmp = planted_comparison();
        let row = cmp.row("SAINTDroid").expect("row");
        assert_eq!(row.skipped_apps, 0);
        for fam in &row.families {
            assert_eq!(
                (fam.accuracy.fp, fam.accuracy.fn_),
                (0, 0),
                "family {} must be exact, got {}",
                fam.family,
                fam.accuracy
            );
            assert!((fam.f1 - 1.0).abs() < 1e-9, "family {}", fam.family);
        }
        let dsd = row
            .families
            .iter()
            .find(|f| f.family == Family::Dsd)
            .expect("dsd family scored");
        assert_eq!(dsd.accuracy.tp, 3, "all three planted DSD defects");
    }

    /// No baseline can see the DSD family at all — the comparative
    /// angle of the new detector.
    #[test]
    fn baselines_never_score_the_dsd_family() {
        let cmp = planted_comparison();
        for row in &cmp.tools {
            if row.tool != "SAINTDroid" {
                assert!(
                    row.families.iter().all(|f| f.family != Family::Dsd),
                    "{} must not claim DSD",
                    row.tool
                );
            }
        }
    }

    #[test]
    fn comparison_serializes_for_the_artifact() {
        let cmp = planted_comparison();
        let json = serde_json::to_string(&cmp).expect("serialize comparison");
        assert!(json.contains("\"corpus\":\"planted\""));
        assert!(json.contains("\"Dsd\""));
        let text = cmp.to_string();
        assert!(text.contains("SAINTDroid"));
        assert!(text.contains("DSD"));
    }
}
