//! # saint-baselines — the compared tools
//!
//! Reimplementations of the three baselines the SAINTDroid paper
//! evaluates against, each built from its published strategy *including
//! its documented blind spots* — the comparison is about strategy
//! (eager vs. lazy loading, modeled vs. mined API knowledge,
//! guard-sensitive vs. not), so the blind spots are the point:
//!
//! | Tool | API | APC | PRM | DSD | Strategy |
//! |------|-----|-----|-----|-----|----------|
//! | [`Cid`] | ✓ | ✗ | ✗ | ✗ | monolithic load, conditional call graph, first framework level only, model ceiling at API 25 |
//! | [`Cider`] | ✗ | ✓ | ✗ | ✗ | hand-built PI-graph callback models of four classes |
//! | [`Lint`] | ✓ | ✗ | ✗ | ✗ | source build + direct-call scan, no control-flow awareness |
//!
//! All three implement [`saintdroid::CompatDetector`], so the
//! experiment harnesses can run the full tool matrix uniformly. No
//! baseline covers the declared-SDK consistency (DSD) family — that
//! column exists only on the DSD-enabled SAINTDroid row, which is the
//! comparative angle the [`harness`] measures: [`harness::compare`]
//! runs the whole matrix against a labeled ground-truth corpus and
//! tallies per-family precision/recall/F1 (the `saintdroid compare`
//! verb and the CI recall floor).
//!
//! ```
//! use std::sync::Arc;
//! use saint_adf::AndroidFramework;
//! use saint_baselines::{all_detectors, Cid};
//! use saintdroid::CompatDetector;
//!
//! let fw = Arc::new(AndroidFramework::curated());
//! let tools = all_detectors(&fw);
//! let names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
//! assert_eq!(names, vec!["SAINTDroid", "CID", "CIDER", "Lint"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cid;
mod cider;
pub mod harness;
mod lint;

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saintdroid::{CompatDetector, SaintDroid};

pub use cid::{Cid, CID_MAX_LEVEL};
pub use cider::{pi_model, Cider, ModeledCallback, MODELED_CLASSES};
pub use harness::{compare, comparison_detectors, Comparison, FamilyScore, ToolRow};
pub use lint::Lint;

/// The full tool matrix of the paper's evaluation, SAINTDroid first.
#[must_use]
pub fn all_detectors(framework: &Arc<AndroidFramework>) -> Vec<Box<dyn CompatDetector>> {
    vec![
        Box::new(SaintDroid::new(Arc::clone(framework))),
        Box::new(Cid::new(Arc::clone(framework))),
        Box::new(Cider::new(Arc::clone(framework))),
        Box::new(Lint::new(Arc::clone(framework))),
    ]
}
