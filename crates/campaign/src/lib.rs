//! # saint-campaign — ecosystem-scale fleet campaign runner
//!
//! The service layer (PR 5/7) made one daemon fast; this crate makes
//! *many* daemons useful. A **campaign** is one pass over a large
//! corpus — frozen `.sfrz` images and/or loose `.sapk` directories —
//! fanned out across a fleet of scan daemons, with the three
//! properties an ecosystem-scale run (the paper scans 28k apps)
//! actually needs:
//!
//! 1. **Sharding** ([`ShardPlanner`]) — consistent hashing of
//!    content-addressed campaign ids onto daemon endpoints, so the
//!    work split is deterministic and losing a daemon moves *only*
//!    its shard.
//! 2. **Checkpointed resume** ([`journal`]) — an append-only,
//!    CRC-framed NDJSON journal of completions, fsync'd in batches.
//!    Kill the driver (or the whole host) at any point; `campaign
//!    resume` replays the salvageable prefix and re-scans exactly the
//!    uncovered units. Because scans are deterministic and the store
//!    deduplicates by id, the resumed campaign **converges to the
//!    same report** as an uninterrupted one — fingerprint-identical,
//!    byte-identical in the stable rendering.
//! 3. **Aggregated results** ([`ResultStore`] / [`CampaignReport`]) —
//!    per-app rows plus campaign-wide roll-ups (mismatches per
//!    detector family, per API level, top offending APIs, per-daemon
//!    throughput) in one deterministic document.
//!
//! The [`driver`] runs one [`PipelinedClient`] per daemon and applies
//! the service retry taxonomy fleet-wide: transient errors were
//! already retried against the same daemon, so when they surface the
//! daemon is declared lost and its units fail over to survivors;
//! permanent per-package rejections are isolated to the one guilty
//! unit and stop the campaign with a typed error.
//!
//! `saintdroid campaign run|resume|report` and `--fleet N` (a
//! [`LocalFleet`] of in-process daemons) wrap all of this on the CLI.
//!
//! [`PipelinedClient`]: saint_service::PipelinedClient

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod error;
pub mod fleet;
pub mod journal;
pub mod registry;
pub mod shard;
pub mod store;

pub use driver::{run_campaign, CampaignConfig, CampaignOutcome};
pub use error::CampaignError;
pub use fleet::LocalFleet;
pub use journal::{replay, JournalFinding, JournalRecord, JournalReplay, JournalWriter};
pub use registry::{unit_id, CorpusRegistry, WorkUnit};
pub use shard::{ShardPlanner, VNODES};
pub use store::{
    report_digest, report_fingerprint, ApiCount, AppSummary, CampaignReport, DaemonStats,
    ResultStore, RuntimeStats,
};
