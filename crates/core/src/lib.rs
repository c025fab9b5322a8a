//! # saintdroid — the paper's primary contribution
//!
//! A reproduction of **SAINTDroid: Scalable, Automated Incompatibility
//! Detection for Android** (DSN 2022). SAINTDroid statically detects
//! three families of crash-leading Android compatibility issues
//! (paper Table I):
//!
//! * **API invocation mismatches** — the app calls a method missing at
//!   some supported device level (Algorithm 2);
//! * **API callback mismatches** — the app overrides a framework method
//!   missing at some supported level (Algorithm 3);
//! * **permission-induced mismatches** — the app misuses the API-23
//!   runtime permission system (Algorithm 4).
//!
//! Its defining trait is *gradual class loading*: instead of loading
//! the whole app + framework monolithically, a Class Loader Virtual
//! Machine loads classes on demand as a worklist-driven reachability
//! analysis discovers them (Algorithm 1), letting the analysis walk
//! seamlessly from app code into framework code and back.
//!
//! ```
//! use std::sync::Arc;
//! use saint_adf::{well_known, AndroidFramework};
//! use saintdroid::{CompatDetector, MismatchKind, SaintDroid};
//! use saint_ir::{ApkBuilder, ApiLevel, ClassBuilder, ClassOrigin};
//!
//! // An app with minSdkVersion 21 calling an API introduced in 23:
//! let main = ClassBuilder::new("com.x.Main", ClassOrigin::App)
//!     .extends("android.app.Activity")
//!     .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
//!         b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
//!         b.ret_void();
//!     })?
//!     .build();
//! let apk = ApkBuilder::new("com.x", ApiLevel::new(21), ApiLevel::new(28))
//!     .activity("com.x.Main")
//!     .class(main)?
//!     .build();
//!
//! let tool = SaintDroid::new(Arc::new(AndroidFramework::curated()));
//! let report = tool.analyze(&apk).unwrap();
//! assert_eq!(report.count(MismatchKind::ApiInvocation), 1);
//! # Ok::<(), saint_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amd;
mod arm;
mod aum;
mod detector;
pub mod engine;
mod error;
mod frozen;
mod mismatch;
pub mod repair;
mod report;
mod saintdroid;

pub use arm::Arm;
pub use aum::{is_app_origin, AppModel, Aum};
pub use detector::{CompatDetector, DetectorSet, Family};
pub use engine::{BatchScan, ScanEngine};
pub use error::{panic_message, ScanError};
pub use frozen::FrozenBoot;
pub use mismatch::{is_mismatch_region, missing_levels_in, Mismatch, MismatchKind};
pub use report::{Report, REPORT_SCHEMA_VERSION};
pub use saintdroid::{FamilyParts, SaintDroid, ScanParts};
