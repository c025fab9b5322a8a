//! The aggregated result store: deduplicated per-app results and the
//! campaign report rolled up from them.
//!
//! The store is fed from two places — live scan completions during a
//! run and journal replay during a resume — and treats both
//! identically: a [`JournalRecord`] keyed by campaign id. Because
//! scans are deterministic and ids are content-addressed, inserting
//! the same unit twice is a no-op, which is the property that makes
//! "resume converges to the same report" provable rather than hoped:
//! the final report is a pure function of the *set* of records, and
//! the set is the same whether the campaign ran once or was stitched
//! together from a salvaged journal prefix plus a re-scan of the rest.
//!
//! Everything in [`CampaignReport`] is deterministically ordered
//! (`BTreeMap` roll-ups, id-ordered per-app rows, count-then-name
//! ordered top APIs) so two converged runs render byte-identical
//! stable reports — the CI smoke job literally `diff`s them.

use std::collections::BTreeMap;

use saint_frozen::{fnv1a, FNV_OFFSET};
use serde::{Deserialize, Serialize};

use crate::journal::JournalRecord;

/// The per-report digest, matching the bench-suite convention: package,
/// serialized mismatches, and the load-meter quantities that the
/// paper's Figure-4 accounting cares about.
#[must_use]
pub fn report_digest(report: &saintdroid::Report) -> String {
    let mismatches =
        serde_json::to_string(&report.mismatches).unwrap_or_else(|_| "unserializable".to_string());
    format!(
        "{}|{}|{}|{}",
        report.package,
        mismatches,
        report.meter.total_bytes(),
        report.meter.classes_loaded
    )
}

/// FNV-1a fingerprint of one report, rendered as 16 hex digits — the
/// quantity journaled per unit and compared across runs.
#[must_use]
pub fn report_fingerprint(report: &saintdroid::Report) -> String {
    let mut hash = fnv1a(report_digest(report).as_bytes(), FNV_OFFSET);
    hash = fnv1a(b"\n", hash);
    format!("{hash:016x}")
}

/// A framework API and how many mismatches hit it, campaign-wide.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiCount {
    /// Rendered `MethodRef` of the API.
    pub api: String,
    /// Mismatches against it across all apps.
    pub count: u64,
}

/// One app's row in the campaign report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppSummary {
    /// Campaign id, 16 hex digits.
    pub id: String,
    /// Package name.
    pub package: String,
    /// Mismatch count.
    pub mismatches: u64,
    /// Per-report fingerprint.
    pub fingerprint: String,
}

/// Throughput attribution for one daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// The daemon's endpoint (host:port).
    pub endpoint: String,
    /// Apps it completed.
    pub apps: u64,
    /// Its completion rate over the campaign wall clock.
    pub apps_per_sec: f64,
}

/// Wall-clock statistics for one campaign execution. Excluded from the
/// stable rendering: a resumed run legitimately differs here even
/// though its result set converges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Campaign wall-clock seconds (this execution only).
    pub wall_secs: f64,
    /// Apps completed per second across the fleet.
    pub apps_per_sec: f64,
    /// Per-daemon attribution.
    pub daemons: Vec<DaemonStats>,
    /// Units re-dispatched after transient failures or failovers.
    pub resubmissions: u64,
    /// Daemons lost and failed over mid-campaign.
    pub daemon_failovers: u64,
    /// Journal checkpoint batches fsync'd.
    pub checkpoint_flushes: u64,
}

/// The one-document campaign output: totals, roll-ups, per-app rows,
/// and (optionally) runtime statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Distinct apps scanned.
    pub apps: u64,
    /// Apps with zero mismatches.
    pub clean: u64,
    /// Total mismatches campaign-wide.
    pub mismatches: u64,
    /// Campaign fingerprint: FNV-1a over `id|fingerprint` lines in id
    /// order. Two runs that scanned the same corpus agree here.
    pub fingerprint: String,
    /// Mismatches per detector family (`API` / `APC` / `PRM` / `DSD`).
    pub by_family: BTreeMap<String, u64>,
    /// Mismatches per affected API level (zero-padded keys so JSON
    /// object order is numeric).
    pub by_level: BTreeMap<String, u64>,
    /// The ten most-hit framework APIs, count-descending then
    /// name-ascending.
    pub top_apis: Vec<ApiCount>,
    /// Every app, id-ordered.
    pub per_app: Vec<AppSummary>,
    /// Execution statistics; `None` (rendered `null`) in the stable
    /// rendering.
    pub runtime: Option<RuntimeStats>,
}

impl CampaignReport {
    /// Pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// The stable rendering: runtime statistics stripped, so converged
    /// runs — however they got there — compare byte-for-byte.
    #[must_use]
    pub fn stable_json(&self) -> String {
        let mut stable = self.clone();
        stable.runtime = None;
        stable.to_json()
    }
}

/// Deduplicated per-app results, keyed (and therefore ordered) by
/// campaign id.
#[derive(Debug, Default)]
pub struct ResultStore {
    records: BTreeMap<u64, JournalRecord>,
}

impl ResultStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one completed unit. Returns `false` (and keeps the
    /// existing record) when the id is already present — the
    /// double-count guard for journal replays and resubmission races.
    pub fn insert(&mut self, record: JournalRecord) -> bool {
        match self.records.entry(record.id) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(record);
                true
            }
        }
    }

    /// Whether a unit is already recorded.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.records.contains_key(&id)
    }

    /// Number of recorded units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in id order.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records.values()
    }

    /// The campaign fingerprint over everything recorded so far.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut hash = FNV_OFFSET;
        for record in self.records.values() {
            let line = format!("{:016x}|{}\n", record.id, record.fingerprint);
            hash = fnv1a(line.as_bytes(), hash);
        }
        format!("{hash:016x}")
    }

    /// Rolls the store up into the campaign report. Pass the execution's
    /// [`RuntimeStats`] for the operator rendering, or `None` for the
    /// stable one.
    #[must_use]
    pub fn report(&self, runtime: Option<RuntimeStats>) -> CampaignReport {
        let mut by_family: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_level: BTreeMap<String, u64> = BTreeMap::new();
        let mut api_counts: BTreeMap<&str, u64> = BTreeMap::new();
        let mut per_app = Vec::with_capacity(self.records.len());
        let mut clean = 0_u64;
        let mut mismatches = 0_u64;
        for record in self.records.values() {
            if record.findings.is_empty() {
                clean += 1;
            }
            mismatches += record.findings.len() as u64;
            for finding in &record.findings {
                *by_family.entry(finding.family.clone()).or_insert(0) += 1;
                *api_counts.entry(finding.api.as_str()).or_insert(0) += 1;
                for level in &finding.levels {
                    *by_level.entry(format!("{:02}", level.get())).or_insert(0) += 1;
                }
            }
            per_app.push(AppSummary {
                id: format!("{:016x}", record.id),
                package: record.package.clone(),
                mismatches: record.findings.len() as u64,
                fingerprint: record.fingerprint.clone(),
            });
        }
        let mut top_apis: Vec<ApiCount> = api_counts
            .into_iter()
            .map(|(api, count)| ApiCount {
                api: api.to_string(),
                count,
            })
            .collect();
        // BTreeMap already gave name-ascending order; a stable sort on
        // descending count preserves it as the tiebreak.
        top_apis.sort_by_key(|a| std::cmp::Reverse(a.count));
        top_apis.truncate(10);
        CampaignReport {
            apps: self.records.len() as u64,
            clean,
            mismatches,
            fingerprint: self.fingerprint(),
            by_family,
            by_level,
            top_apis,
            per_app,
            runtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalFinding;
    use saint_ir::ApiLevel;

    fn record(id: u64, findings: Vec<JournalFinding>) -> JournalRecord {
        JournalRecord {
            id,
            package: format!("com.app.{id}"),
            fingerprint: format!("{:016x}", id.wrapping_mul(7)),
            daemon: "127.0.0.1:9000".to_string(),
            micros: 100,
            resubmits: 0,
            findings,
        }
    }

    fn finding(family: &str, api: &str, levels: &[u8]) -> JournalFinding {
        JournalFinding {
            family: family.to_string(),
            api: api.to_string(),
            levels: levels.iter().map(|&l| ApiLevel::new(l)).collect(),
        }
    }

    #[test]
    fn duplicate_inserts_never_double_count() {
        let mut store = ResultStore::new();
        assert!(store.insert(record(7, vec![finding("API", "a.B.m()V", &[21])])));
        assert!(!store.insert(record(7, vec![finding("API", "a.B.m()V", &[21])])));
        assert_eq!(store.len(), 1);
        let report = store.report(None);
        assert_eq!(report.apps, 1);
        assert_eq!(report.mismatches, 1);
    }

    #[test]
    fn report_is_order_independent() {
        let records = [
            record(3, vec![finding("API", "a.B.m()V", &[21, 23])]),
            record(1, Vec::new()),
            record(2, vec![finding("PRM", "a.C.p()V", &[23])]),
        ];
        let mut fwd = ResultStore::new();
        let mut rev = ResultStore::new();
        for r in &records {
            fwd.insert(r.clone());
        }
        for r in records.iter().rev() {
            rev.insert(r.clone());
        }
        assert_eq!(fwd.report(None), rev.report(None));
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        let stable = fwd.report(None).stable_json();
        assert_eq!(stable, rev.report(None).stable_json());
        assert!(stable.contains("\"runtime\": null"));
    }

    #[test]
    fn rollups_count_families_levels_and_apis() {
        let mut store = ResultStore::new();
        store.insert(record(
            1,
            vec![
                finding("API", "a.B.m()V", &[21, 22]),
                finding("APC", "a.B.cb()V", &[23]),
            ],
        ));
        store.insert(record(2, vec![finding("API", "a.B.m()V", &[9])]));
        store.insert(record(3, Vec::new()));
        let report = store.report(None);
        assert_eq!(report.apps, 3);
        assert_eq!(report.clean, 1);
        assert_eq!(report.mismatches, 3);
        assert_eq!(report.by_family.get("API"), Some(&2));
        assert_eq!(report.by_family.get("APC"), Some(&1));
        // Zero-padded keys keep JSON object order numeric.
        let levels: Vec<&str> = report.by_level.keys().map(String::as_str).collect();
        assert_eq!(levels, ["09", "21", "22", "23"]);
        assert_eq!(report.top_apis[0].api, "a.B.m()V");
        assert_eq!(report.top_apis[0].count, 2);
    }

    #[test]
    fn stable_json_strips_runtime_but_keeps_fingerprint() {
        let mut store = ResultStore::new();
        store.insert(record(1, Vec::new()));
        let runtime = RuntimeStats {
            wall_secs: 1.5,
            apps_per_sec: 0.66,
            daemons: Vec::new(),
            resubmissions: 0,
            daemon_failovers: 0,
            checkpoint_flushes: 1,
        };
        let with = store.report(Some(runtime));
        assert!(with.to_json().contains("wall_secs"));
        assert_eq!(with.stable_json(), store.report(None).to_json());
        assert!(with.stable_json().contains(&store.fingerprint()));
    }
}
