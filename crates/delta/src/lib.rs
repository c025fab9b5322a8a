//! Incremental & differential scanning (`saint-delta`).
//!
//! Real store traffic is overwhelmingly *updates* of already-scanned
//! apps. This crate makes a rescan pay only for what changed:
//!
//! * [`hash`] content-addresses classes with the repo's FNV fingerprint
//!   scheme (over the canonical `codec` encoding) and folds in the
//!   framework fingerprint, the exploration policy, and the manifest —
//!   any of those changing invalidates every cached slice;
//! * [`graph`] partitions an app's bundled classes into *analysis
//!   groups*: weakly-connected components of the class-reference graph.
//!   A group is the smallest unit whose analysis results are provably
//!   independent of the rest of the app (every CLVM lookup the pipeline
//!   can make from a class follows one of the graph's edge kinds);
//! * [`store`] persists one artifact per group (plus a whole-app
//!   fast-path artifact) in a versioned, checksummed on-disk store
//!   under `.saint/delta/`, with typed [`DeltaError`]s for every way a
//!   file can be wrong;
//! * [`dictionary`] numbers the framework's classes and methods, so a
//!   group artifact stores its framework ledger entries as ids — in
//!   the scanner's memo and on disk alike;
//! * [`scanner`] is the engine: on rescan it re-runs the pipeline only
//!   over groups whose key changed (projecting each into a sub-APK) and
//!   splices cached per-group findings back together so the merged
//!   report is **byte-identical** to a full rescan (modulo wall-clock
//!   `duration`) — the tier-1 differential-correctness gate. Apps are
//!   presented as their encoded `SAPK` container bytes
//!   ([`DeltaScanner::scan_encoded`]), whose FNV key gates a whole-app
//!   replay; long-lived scanners additionally keep bounded
//!   write-through in-process memos of both artifact kinds;
//! * [`history`] scans a version lineage oldest-first, reusing
//!   artifacts across versions, and reports the version at which each
//!   mismatch was introduced or fixed (the evolution-aware angle of the
//!   related work).
//!
//! Corrupt, truncated, or version-skewed store entries are detected,
//! reported as typed errors internally, and silently degrade to a fresh
//! rescan of the affected slice — the store can never make a report
//! wrong, only slower.

pub mod dictionary;
pub mod error;
pub mod graph;
pub mod hash;
pub mod history;
pub mod scanner;
pub mod store;

pub use dictionary::FrameworkDictionary;
pub use error::DeltaError;
pub use graph::bundled_groups;
pub use history::{scan_history, EvolutionEntry, EvolutionReport, VersionScan};
pub use scanner::{DeltaScanner, DeltaStats};
pub use store::{DeltaStore, GroupArtifact, FORMAT_VERSION};
