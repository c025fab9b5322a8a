//! # saint-adf — the Android framework model
//!
//! SAINTDroid's ARM component (paper §III-B) mines the Android
//! framework revision history into two reusable artifacts: an **API
//! database** (which method/callback exists at which API level) and a
//! **permission map** (which API methods require which permissions).
//! Offline Rust has no Android framework jars, so this crate *is* the
//! framework: a curated model of the real compatibility-critical API
//! surface ([`android_spec`]) with true lifetimes, embedded in a
//! deterministic synthetic expansion ([`synth`]) large enough that lazy
//! vs. eager loading matters.
//!
//! ```
//! use saint_adf::{AndroidFramework, well_known};
//! use saint_ir::ApiLevel;
//!
//! let fw = AndroidFramework::curated();
//! let db = fw.database();
//! // Context.getColorStateList(int) appeared in API 23:
//! let m = well_known::context_get_color_state_list();
//! assert!(!db.contains(&m, ApiLevel::new(22)));
//! assert!(db.contains(&m, ApiLevel::new(23)));
//!
//! // Camera.open() needs the dangerous CAMERA permission:
//! let pm = fw.permission_map();
//! assert!(!pm.required(&well_known::camera_open()).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod android;
mod database;
mod fingerprint;
mod framework;
mod permissions;
pub mod spec;
pub mod synth;

pub use android::{android_spec, well_known};
pub use database::ApiDatabase;
pub use fingerprint::spec_fingerprint;
pub use framework::{AndroidFramework, ClassSource};
pub use permissions::{dangerous_permissions, is_dangerous, PermissionMap, DANGEROUS_PERMISSIONS};
pub use saint_ir::{fnv1a, FNV_OFFSET};
pub use spec::{ClassSpec, FrameworkSpec, LifeSpan, MethodSpec, SpecCall};
pub use synth::SynthConfig;
